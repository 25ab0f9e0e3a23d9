package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// This file pins the incremental phase-2 repair (DeltaWorkspace) to the full
// Floyd–Warshall pass, in the style of equivalence_test.go: byte-identical
// plans over meshes 4-16 × algorithms × battery-drain trajectories × dead
// nodes × link faults, a randomized long-run soak, a property test over
// random single-weight perturbations (including the crossover boundary), the
// zero-alloc steady-state guard, and the repair-vs-full benchmarks.

// newFullWorkspace returns the reference every repair is compared against:
// a DeltaWorkspace pinned to the full Floyd–Warshall pass.
func newFullWorkspace() *DeltaWorkspace {
	ws := NewDeltaWorkspace()
	ws.SetMode(RecomputeFull)
	return ws
}

// assertNeverRepaired fails when a reference workspace took the incremental
// path, which would make a delta-vs-full comparison compare the repair with
// itself.
func assertNeverRepaired(t *testing.T, ref *DeltaWorkspace) {
	t.Helper()
	if s := ref.Stats(); s.Incremental != 0 {
		t.Fatalf("reference workspace repaired %d recomputes, want full passes only: %+v", s.Incremental, s)
	}
}

// assertPlansIdentical asserts two dense plans are byte-identical: every
// distance bit pattern, every successor, and every phase-3 table entry.
func assertPlansIdentical(t *testing.T, got, want *Plan) {
	t.Helper()
	gp, wp := got.Paths, want.Paths
	if gp.n != wp.n {
		t.Fatalf("dimensions diverged: %d vs %d", gp.n, wp.n)
	}
	k := gp.n
	for i := 0; i < k*k; i++ {
		if math.Float64bits(gp.dist.cells[i]) != math.Float64bits(wp.dist.cells[i]) {
			t.Fatalf("dist[%d][%d] = %g, want %g", i/k, i%k, gp.dist.cells[i], wp.dist.cells[i])
		}
		if gp.succ[i] != wp.succ[i] {
			t.Fatalf("succ[%d][%d] = %d, want %d", i/k, i%k, gp.succ[i], wp.succ[i])
		}
	}
	gt, wt := got.Tables, want.Tables
	if gt.nodes != wt.nodes || gt.modules != wt.modules {
		t.Fatalf("table dimensions diverged: %dx%d vs %dx%d", gt.nodes, gt.modules, wt.nodes, wt.modules)
	}
	for i := range gt.has {
		if gt.has[i] != wt.has[i] {
			t.Fatalf("has[%d] = %v, want %v", i, gt.has[i], wt.has[i])
		}
	}
	for i := range gt.known {
		if gt.known[i] != wt.known[i] {
			t.Fatalf("known[%d] = %v, want %v", i, gt.known[i], wt.known[i])
		}
	}
	for i, r := range gt.routes {
		w := wt.routes[i]
		if r.Dest != w.Dest || r.NextHop != w.NextHop ||
			math.Float64bits(r.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("routes[%d] = %+v, want %+v", i, r, w)
		}
	}
	for from := 0; from < k; from++ {
		for dest := 0; dest < k; dest++ {
			f, d := topology.NodeID(from), topology.NodeID(dest)
			if g, w := gt.NextHop(f, d), wt.NextHop(f, d); g != w {
				t.Fatalf("NextHop(%d, %d) = %d, want %d", from, dest, g, w)
			}
		}
	}
	assertSuccMatchesReachability(t, gp)
	assertSuccMatchesReachability(t, wp)
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints diverged despite identical contents")
	}
}

// assertSuccMatchesReachability asserts that every off-diagonal successor
// is topology.Invalid exactly when its distance is Inf: the invariant that
// lets Tables.NextHop answer from the successor matrix.
func assertSuccMatchesReachability(t *testing.T, sp *ShortestPaths) {
	t.Helper()
	k := sp.n
	for i := 0; i < k*k; i++ {
		if i/k == i%k {
			continue
		}
		if unreachable := sp.dist.cells[i] == Inf; unreachable != (sp.succ[i] == topology.Invalid) {
			t.Fatalf("succ[%d][%d] = %d with dist %g", i/k, i%k, sp.succ[i], sp.dist.cells[i])
		}
	}
}

func checkerboardDests(g *topology.Graph) map[app.ModuleID][]topology.NodeID {
	dests := map[app.ModuleID][]topology.NodeID{}
	for n := 0; n < g.NodeCount(); n++ {
		m := app.ModuleID(n%3 + 1)
		dests[m] = append(dests[m], topology.NodeID(n))
	}
	return dests
}

// TestDeltaMatchesFullRecompute drives an incremental and a full-mode
// DeltaWorkspace in lockstep — each chaining its own prev tables, exactly like a
// controller — over meshes 4-16 with battery-drain trajectories, node
// deaths (which must trigger the full fallback), deadlock churn and
// setup-time link faults, asserting byte-identical plans on every round.
func TestDeltaMatchesFullRecompute(t *testing.T) {
	for _, meshSize := range []int{4, 6, 8, 12, 16} {
		for _, alg := range []Algorithm{SDR{}, NewEAR()} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, alg.Name()), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(meshSize)*41 + int64(len(alg.Name()))))
				dests := checkerboardDests(mesh.Graph)
				state := fullState(mesh.Graph, 8)

				dw := NewDeltaWorkspace()
				ws := newFullWorkspace()
				var dPrev, fPrev *Tables
				rounds := 24
				if meshSize >= 12 {
					rounds = 8
				}
				for round := 0; round < rounds; round++ {
					// Mostly battery drain; every few rounds a death or a
					// deadlock flip.
					for hit := 0; hit < 1+rng.Intn(3); hit++ {
						st := &state.Status[rng.Intn(len(state.Status))]
						if st.BatteryLevel > 0 {
							st.BatteryLevel--
						} else {
							st.BatteryLevel = 7
						}
					}
					if round%5 == 4 {
						state.Status[rng.Intn(len(state.Status))].Alive = false
					}
					if round%3 == 2 {
						st := &state.Status[rng.Intn(len(state.Status))]
						st.Deadlocked = !st.Deadlocked
					}
					dPlan := dw.ComputeInto(alg, state, dests, dPrev)
					fPlan := ws.ComputeInto(alg, state, dests, fPrev)
					assertPlansIdentical(t, dPlan, fPlan)
					dPrev, fPrev = dPlan.Tables, fPlan.Tables
				}
				assertNeverRepaired(t, ws)
				stats := dw.Stats()
				if stats.Full+stats.Incremental != rounds {
					t.Fatalf("stats count %d recomputes, want %d", stats.Full+stats.Incremental, rounds)
				}
				// On tiny meshes a few drained nodes are already a large
				// dirty fraction, so only the bigger meshes are guaranteed
				// to exercise the repair under the default crossover.
				if meshSize >= 8 && alg.NeedsBatteryInfo() && stats.Incremental == 0 {
					t.Fatalf("EAR drain trajectory never took the incremental path: %+v", stats)
				}
			})
		}
	}
}

// TestDeltaLongRunSoak is the randomized endurance pass: hundreds of rounds
// of mixed drains, deaths, revivals and deadlock churn on the paper's 8x8
// mesh, incremental vs full, byte-identical throughout.
func TestDeltaLongRunSoak(t *testing.T) {
	mesh := topology.MustMesh(8, 8, topology.DefaultSpacingCM)
	rng := rand.New(rand.NewSource(97))
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	var alg Algorithm = NewEAR()

	dw := NewDeltaWorkspace()
	ws := newFullWorkspace()
	var dPrev, fPrev *Tables
	for round := 0; round < 300; round++ {
		st := &state.Status[rng.Intn(len(state.Status))]
		switch r := rng.Float64(); {
		case r < 0.70:
			st.BatteryLevel = rng.Intn(8)
		case r < 0.85:
			st.Deadlocked = !st.Deadlocked
		case r < 0.95:
			st.Alive = false
		default:
			st.Alive = true // revival must also force the full fallback
		}
		dPlan := dw.ComputeInto(alg, state, dests, dPrev)
		fPlan := ws.ComputeInto(alg, state, dests, fPrev)
		assertPlansIdentical(t, dPlan, fPlan)
		dPrev, fPrev = dPlan.Tables, fPlan.Tables
	}
	assertNeverRepaired(t, ws)
	stats := dw.Stats()
	if stats.Incremental == 0 || stats.Full == 0 {
		t.Fatalf("soak did not exercise both paths: %+v", stats)
	}
}

// TestRoutesAgreeWithNextHops pins the property the engine relies on when it
// forwards a job by NextHop alone: every valid route of node n towards
// another node names the hop NextHop(n, route.Dest) returns, including the
// routes deadlock avoidance diverted to a duplicate other than the nearest.
// Random EAR states on 4x4 to 8x8 meshes with dead and deadlocked nodes
// chain each plan's tables as the next prev, in both recompute modes; the
// incremental workspace repairs every recompute that keeps liveness.
func TestRoutesAgreeWithNextHops(t *testing.T) {
	for meshSize := 4; meshSize <= 8; meshSize++ {
		for _, mode := range []RecomputeMode{RecomputeIncremental, RecomputeFull} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, mode), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				k := mesh.Graph.NodeCount()
				rng := rand.New(rand.NewSource(int64(k)*7 + int64(mode)))
				dests := checkerboardDests(mesh.Graph)
				state := fullState(mesh.Graph, 8)
				var alg Algorithm = NewEAR()

				dw := NewDeltaWorkspace()
				dw.SetMode(mode)
				dw.dirtyCrossover, dw.affectedCrossover = 1, 1
				var prev *Tables
				diverted := 0
				for round := 0; round < 40; round++ {
					for hit := 0; hit < 1+rng.Intn(3); hit++ {
						state.Status[rng.Intn(k)].BatteryLevel = rng.Intn(8)
					}
					for n := range state.Status {
						state.Status[n].Deadlocked = rng.Float64() < 0.3
					}
					if round%8 == 7 {
						st := &state.Status[rng.Intn(k)]
						st.Alive = !st.Alive
					}
					plan := dw.ComputeInto(alg, state, dests, prev)
					nearest := BuildTables(state, plan.Paths, dests, nil)
					for n := 0; n < k; n++ {
						node := topology.NodeID(n)
						for m := range dests {
							r, ok := plan.Tables.RouteTo(node, m)
							if !ok || !r.Valid() || r.Dest == node {
								continue
							}
							if hop := plan.Tables.NextHop(node, r.Dest); hop != r.NextHop {
								t.Fatalf("round %d: node %d module %d: route %+v, NextHop = %d", round, n, m, r, hop)
							}
							if near, _ := nearest.RouteTo(node, m); near.Dest != r.Dest {
								diverted++
							}
						}
					}
					prev = plan.Tables
				}
				if diverted == 0 {
					t.Fatal("deadlock avoidance never diverted a route away from the nearest duplicate")
				}
				if s := dw.Stats(); mode == RecomputeIncremental && s.Incremental == 0 {
					t.Fatalf("no recompute was repaired: %+v", s)
				}
			})
		}
	}
}

// matrixAlg exposes phase 1 directly: its weights are an arbitrary matrix
// the test mutates between recomputes, so perturbations are not limited to
// what battery quantisation can express.
type matrixAlg struct{ m *Matrix }

func (matrixAlg) Name() string           { return "matrix" }
func (matrixAlg) NeedsBatteryInfo() bool { return false }
func (a matrixAlg) WeightsInto(w *Matrix, state *SystemState) {
	k := a.m.Dim()
	w.Reset(k)
	for i := 0; i < k; i++ {
		copy(w.Row(i), a.m.Row(i))
		w.Set(i, i, 0)
	}
}

// TestDeltaPropertyRandomPerturbations is the fuzz-style satellite: random
// single-weight (and occasional burst) perturbations on a random directed
// graph — weight changes, link deletions, link insertions — asserting after
// every step that the incremental repair matches a from-scratch computation
// byte-identically, while sweeping the crossover thresholds so both sides
// of the fallback boundary are exercised. Weights are multiples of 1/8 so
// path sums carry no rounding (the byte-identical contract's precondition).
func TestDeltaPropertyRandomPerturbations(t *testing.T) {
	for _, meshSize := range []int{3, 4} {
		t.Run(fmt.Sprintf("%dx%d", meshSize, meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
			k := mesh.Graph.NodeCount()
			rng := rand.New(rand.NewSource(int64(k)))
			var w Matrix
			w.Reset(k)
			randWeight := func() float64 { return float64(1+rng.Intn(64)) * 0.125 }
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i != j && rng.Float64() < 0.3 {
						w.Set(i, j, randWeight())
					}
				}
			}
			var alg Algorithm = matrixAlg{m: &w}
			state := fullState(mesh.Graph, 8)
			dests := checkerboardDests(mesh.Graph)

			dw := NewDeltaWorkspace()
			ws := newFullWorkspace()
			var dPrev, fPrev *Tables
			crossovers := [][2]float64{{0, 0}, {0.05, 0.02}, {0.3, 0.1}, {1, 1}}
			for step := 0; step < 400; step++ {
				if step%25 == 0 {
					c := crossovers[(step/25)%len(crossovers)]
					dw.dirtyCrossover, dw.affectedCrossover = c[0], c[1]
				}
				for hit := 0; hit < 1+rng.Intn(3); hit++ {
					i, j := rng.Intn(k), rng.Intn(k)
					if i == j {
						continue
					}
					switch r := rng.Float64(); {
					case r < 0.25:
						w.Set(i, j, Inf) // link fault
					default:
						w.Set(i, j, randWeight())
					}
				}
				dPlan := dw.ComputeInto(alg, state, dests, dPrev)
				fPlan := ws.ComputeInto(alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
			}
			assertNeverRepaired(t, ws)
			stats := dw.Stats()
			if stats.Incremental == 0 || stats.Full == 0 {
				t.Fatalf("perturbations did not exercise both sides of the crossover: %+v", stats)
			}
		})
	}
}

// TestDeltaRepairTieHeavy drives the repair where equal labels are
// everywhere: a mesh whose links all weigh 1.0, with 1-8 edges per step
// moved by ±1/8 (dyadic, so path sums stay exact), often around one vertex
// and its neighbours so that settling vertices keep lowering the labels of
// their unsettled in-neighbours. Every step must match the full pass byte
// for byte, and every step after the first must be repaired.
func TestDeltaRepairTieHeavy(t *testing.T) {
	for _, tc := range []struct{ meshSize, steps int }{{12, 32}, {16, 12}} {
		t.Run(fmt.Sprintf("%dx%d", tc.meshSize, tc.meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(tc.meshSize, tc.meshSize, topology.DefaultSpacingCM)
			g := mesh.Graph
			k := g.NodeCount()
			var w Matrix
			w.Reset(k)
			links := g.Links()
			for _, l := range links {
				w.Set(int(l.From), int(l.To), 1)
			}
			rng := rand.New(rand.NewSource(int64(k)))
			nudge := func(from, to topology.NodeID) {
				v := w.At(int(from), int(to))
				if v <= 0.75 || (v < 1.25 && rng.Intn(2) == 0) {
					v += 0.125
				} else {
					v -= 0.125
				}
				w.Set(int(from), int(to), v)
			}
			var alg Algorithm = matrixAlg{m: &w}
			state := fullState(g, 8)
			dests := checkerboardDests(g)

			dw := NewDeltaWorkspace()
			dw.dirtyCrossover, dw.affectedCrossover = 1, 1
			ws := newFullWorkspace()
			var dPrev, fPrev *Tables
			for step := 0; step < tc.steps; step++ {
				if step > 0 {
					moves := 1 + rng.Intn(8)
					if step%2 == 0 {
						// Adjacent vertices: a walk, each moved link
						// leaving the vertex the previous one entered.
						v := topology.NodeID(rng.Intn(k))
						for m := 0; m < moves; m++ {
							out := g.OutLinks(v)
							to := out[rng.Intn(len(out))].To
							nudge(v, to)
							v = to
						}
					} else {
						for m := 0; m < moves; m++ {
							l := links[rng.Intn(len(links))]
							nudge(l.From, l.To)
						}
					}
				}
				before := dw.Stats().Incremental
				dPlan := dw.ComputeInto(alg, state, dests, dPrev)
				fPlan := ws.ComputeInto(alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
				if step > 0 && dw.Stats().Incremental != before+1 {
					t.Fatalf("step %d was not repaired: %+v", step, dw.Stats())
				}
			}
			assertNeverRepaired(t, ws)
			if s := dw.Stats(); s.DirtyVertices == 0 || s.AffectedPairs == 0 {
				t.Fatalf("repairs never touched a dirty vertex: %+v", s)
			}
		})
	}
}

// TestDeltaPivotsOnChangedHeads pins the pivot set to the heads of the
// changed edges. On all-1.0 12x12 and 16x16 meshes the steps rotate through
// three asymmetric changes: only the out-edges of one vertex move by ±1/8
// (the heads are its neighbours), only its in-edges move (one head), and a
// few links fail while earlier failures heal. Every step after the first
// must be repaired, match the full pass byte for byte, and run exactly one
// pivot pass per distinct head.
func TestDeltaPivotsOnChangedHeads(t *testing.T) {
	for _, tc := range []struct{ meshSize, steps int }{{12, 31}, {16, 13}} {
		t.Run(fmt.Sprintf("%dx%d", tc.meshSize, tc.meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(tc.meshSize, tc.meshSize, topology.DefaultSpacingCM)
			g := mesh.Graph
			k := g.NodeCount()
			var w Matrix
			w.Reset(k)
			links := g.Links()
			for _, l := range links {
				w.Set(int(l.From), int(l.To), 1)
			}
			rng := rand.New(rand.NewSource(int64(k) + 3))
			heads := map[topology.NodeID]bool{}
			set := func(l topology.Link, v float64) {
				w.Set(int(l.From), int(l.To), v)
				heads[l.To] = true
			}
			// nudge moves a live link by ±1/8 and heals a failed one.
			nudge := func(l topology.Link) {
				switch v := w.At(int(l.From), int(l.To)); {
				case v == Inf:
					set(l, 1)
				case v <= 0.75 || (v < 1.25 && rng.Intn(2) == 0):
					set(l, v+0.125)
				default:
					set(l, v-0.125)
				}
			}
			var failed []topology.Link
			var alg Algorithm = matrixAlg{m: &w}
			state := fullState(g, 8)
			dests := checkerboardDests(g)

			dw := NewDeltaWorkspace()
			dw.dirtyCrossover, dw.affectedCrossover = 1, 1
			ws := newFullWorkspace()
			var dPrev, fPrev *Tables
			for step := 0; step < tc.steps; step++ {
				clear(heads)
				v := topology.NodeID(rng.Intn(k))
				switch {
				case step == 0:
				case step%3 == 1:
					for _, l := range links {
						if l.From == v {
							nudge(l)
						}
					}
				case step%3 == 2:
					for _, l := range links {
						if l.To == v {
							nudge(l)
						}
					}
				default:
					healed := map[topology.Link]bool{}
					for len(failed) > 0 && len(healed) < 2 {
						healed[failed[0]] = true
						nudge(failed[0])
						failed = failed[1:]
					}
					for n := 1 + rng.Intn(3); n > 0; {
						l := links[rng.Intn(len(links))]
						if w.At(int(l.From), int(l.To)) == Inf || healed[l] {
							continue
						}
						set(l, Inf)
						failed = append(failed, l)
						n--
					}
				}
				before := dw.Stats()
				dPlan := dw.ComputeInto(alg, state, dests, dPrev)
				fPlan := ws.ComputeInto(alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
				if step == 0 {
					continue
				}
				after := dw.Stats()
				if after.Incremental != before.Incremental+1 {
					t.Fatalf("step %d was not repaired: %+v", step, after)
				}
				if got := after.Pivots - before.Pivots; got != len(heads) {
					t.Fatalf("step %d ran %d pivot passes, want one per head (%d)", step, got, len(heads))
				}
			}
			assertNeverRepaired(t, ws)
		})
	}
}

// TestRepairAdjacencyFollowsEdgeSet pins the lifetime of the repair's
// neighbour lists, which are rebuilt only when the finite-edge pattern may
// have changed. On an 8x8 EAR mesh the repairs are separated by a link drop
// and heal (the diff sees an edge appear or vanish), a node death and
// revival (full passes that skip the diff) and a dirty-threshold bailout
// that heals the link (a full pass after a diff that saw the flip). Lists
// are built while the link is down and while the node is dead, and each
// repair after an edge comes back drains a vertex on it, so the
// destination's in-neighbour whose best route is the returned edge is
// re-labelled: lists that missed the edge would give it a longer route.
// Every step must match the full pass byte for byte and be the kind of
// recompute its name says.
func TestRepairAdjacencyFollowsEdgeSet(t *testing.T) {
	mesh := topology.MustMesh(8, 8, topology.DefaultSpacingCM)
	g := mesh.Graph.Clone()
	dests := checkerboardDests(g)
	state := fullState(g, 8)
	var alg Algorithm = NewEAR()
	// a-b is the link that drops and heals, d the node that dies and
	// revives; far are four nodes apart from both, drained together past
	// the dirty threshold (0.20·64 vertices).
	const a, b, d = 27, 28, 45
	far := []int{9, 14, 49, 54}
	l, ok := g.Link(a, b)
	if !ok {
		t.Fatalf("no link %d-%d", a, b)
	}
	setLink := func(up bool) {
		var err error
		if up {
			err = g.AddBiLink(a, b, l.LengthCM)
		} else {
			err = g.RemoveBiLink(a, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		state.TopologyEpoch++
	}
	drain := func(n int) {
		st := &state.Status[n]
		st.BatteryLevel = (st.BatteryLevel + 7) % 8
	}

	dw, ref := NewDeltaWorkspace(), newFullWorkspace()
	var dPrev, fPrev *Tables
	step := func(what string, repaired bool) {
		t.Helper()
		before := dw.Stats().Incremental
		dPlan := dw.ComputeInto(alg, state, dests, dPrev)
		fPlan := ref.ComputeInto(alg, state, dests, fPrev)
		assertPlansIdentical(t, dPlan, fPlan)
		dPrev, fPrev = dPlan.Tables, fPlan.Tables
		if got := dw.Stats().Incremental == before+1; got != repaired {
			t.Fatalf("%s: repaired %v, want %v (%+v)", what, got, repaired, dw.Stats())
		}
	}

	setLink(false)
	step("first computation, link down", false)
	drain(a)
	step("drain with the link down: the first lists", true)
	setLink(true)
	step("heal the link", true)
	drain(b)
	step("drain the other end of the healed link", true)

	state.Status[d].Alive = false
	step("node death", false)
	drain(d - 1)
	step("drain beside the dead node", true)
	setLink(false)
	step("drop the link while the node is dead", true)
	drain(a)
	step("drain with the link down", true)
	state.Status[d].Alive = true
	step("node revival", false)
	drain(d)
	step("drain the revived node", true)

	setLink(true)
	for _, n := range far {
		drain(n)
	}
	step("heal the link in a dirty-threshold bailout", false)
	drain(a)
	step("drain an end of the link the bailout healed", true)
	assertNeverRepaired(t, ref)
}

// TestSettleHeapPopOrder pins the settle heap to the linear scan it
// replaced: with heavily tied labels and random decrease-keys between pops,
// every pop must be the (label, id) minimum of the unsettled set. With
// strictly positive weights, equal-label vertices never relax each other,
// so the repaired matrices cannot show the order among ties; this test is
// what holds the id tie-break. The scan reads the labels from its own
// array, which every decrease-key updates alongside the heap entry.
func TestSettleHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 64
	label := make([]float64, k)
	pos := make([]int32, k)
	for round := 0; round < 200; round++ {
		for i := range pos {
			pos[i] = -1
		}
		var heap []settleEntry
		var scan []int
		for v := 0; v < k; v++ {
			if rng.Intn(3) > 0 {
				label[v] = float64(rng.Intn(6))
				if rng.Intn(8) == 0 {
					label[v] = Inf
				}
				heap = append(heap, settleEntry{label: label[v], v: int32(v)})
				scan = append(scan, v)
			}
		}
		heapInit(heap, pos)
		for len(heap) > 0 {
			bi := 0
			for x := 1; x < len(scan); x++ {
				u, b := scan[x], scan[bi]
				if label[u] < label[b] || (label[u] == label[b] && u < b) {
					bi = x
				}
			}
			want := scan[bi]
			scan[bi] = scan[len(scan)-1]
			scan = scan[:len(scan)-1]

			var top settleEntry
			top, heap = heapPop(heap, pos)
			v := int(top.v)
			if v != want || top.label != label[want] {
				t.Fatalf("round %d: heap popped %d (label %g), scan picks %d (label %g)", round, v, top.label, want, label[want])
			}
			if pos[v] != -1 {
				t.Fatalf("round %d: popped vertex %d still has slot %d", round, v, pos[v])
			}
			for _, u := range scan {
				if x := pos[u]; x < 0 || int(heap[x].v) != u || heap[x].label != label[u] {
					t.Fatalf("round %d: vertex %d has slot %d, which does not hold it with label %g", round, u, x, label[u])
				}
			}
			// Lower a few remaining labels, often onto an existing tie.
			for d := 0; d < rng.Intn(4) && len(scan) > 0; d++ {
				u := scan[rng.Intn(len(scan))]
				if nl := label[v] + float64(rng.Intn(3)); nl < label[u] {
					label[u] = nl
					heap[pos[u]].label = nl
					siftUp(heap, pos, int(pos[u]))
				}
			}
		}
	}
}

// TestRecomputeCopiesOnlyFullPasses pins Recompute's donor rule: a full
// decision copies the donor's phase 2 only when the donor's last phase 2
// was a full pass over bit-identical weights. At EAR Q = 21.3 weight sums
// round, so a repaired donor would be detectable. Every plan must equal a
// donor-free full pass over the same state.
func TestRecomputeCopiesOnlyFullPasses(t *testing.T) {
	mesh := topology.MustMesh(8, 8, topology.DefaultSpacingCM)
	dests := checkerboardDests(mesh.Graph)
	var alg Algorithm = EAR{Params: EARParams{Q: 21.3, Levels: 8}}
	state := fullState(mesh.Graph, 8)
	for i := range state.Status {
		state.Status[i].BatteryLevel = i % 8
	}
	donor := NewDeltaWorkspace()
	recv := newFullWorkspace() // every recompute is a full decision
	ref := newFullWorkspace()
	var donorPrev, recvPrev, refPrev *Tables
	runDonor := func() { donorPrev = donor.ComputeInto(alg, state, dests, donorPrev).Tables }
	step := func(what string, offer *DeltaWorkspace, wantShared int) {
		t.Helper()
		recv.Weigh(alg, state)
		got := recv.Recompute(state, dests, recvPrev, offer)
		want := ref.ComputeInto(alg, state, dests, refPrev)
		recvPrev, refPrev = got.Tables, want.Tables
		assertPlansIdentical(t, got, want)
		if st := recv.Stats(); st.Shared != wantShared || st.Full != ref.Stats().Full {
			t.Fatalf("%s: stats %+v, want Shared %d and Full %d", what, st, wantShared, ref.Stats().Full)
		}
	}

	runDonor() // first computation: a full pass
	step("full donor, same weights", donor, 1)

	state.Status[9].BatteryLevel--
	runDonor()
	if donor.Stats().Incremental != 1 {
		t.Fatalf("donor did not repair the battery change: %+v", donor.Stats())
	}
	step("repaired donor, same weights", donor, 1)

	state.Status[10].Alive = false
	runDonor() // liveness change: a full pass
	state.Status[11].BatteryLevel--
	step("full donor, other weights", donor, 1)

	state.Status[10].Alive = true
	state.Status[11].BatteryLevel++
	runDonor()
	step("no donor", nil, 1)
	step("full donor, same weights again", donor, 2)
}

// TestRecomputeNeedsWeigh: Recompute runs on the weights of the Weigh
// before it, once. A second Recompute would diff the previous weights
// against themselves, so it panics instead.
func TestRecomputeNeedsWeigh(t *testing.T) {
	mesh := topology.MustMesh(4, 4, topology.DefaultSpacingCM)
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	dw := NewDeltaWorkspace()
	prev := dw.ComputeInto(NewEAR(), state, dests, nil).Tables
	defer func() {
		if recover() == nil {
			t.Fatal("Recompute after a used Weigh did not panic")
		}
	}()
	dw.Recompute(state, dests, prev, nil)
}

// TestDeltaCrossoverPolicy pins the fallback triggers: an unchanged
// snapshot repairs for free, a forced-full mode never repairs, a tiny
// crossover rejects even a single dirty vertex, and a permissive crossover
// accepts a broad change — all byte-identical to the full pass.
func TestDeltaCrossoverPolicy(t *testing.T) {
	mesh := topology.MustMesh(6, 6, topology.DefaultSpacingCM)
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	var alg Algorithm = NewEAR()

	dw := NewDeltaWorkspace()
	ws := newFullWorkspace()
	check := func(wantFull, wantIncr int) {
		t.Helper()
		dPlan := dw.ComputeInto(alg, state, dests, nil)
		fPlan := ws.ComputeInto(alg, state, dests, nil)
		assertPlansIdentical(t, dPlan, fPlan)
		assertNeverRepaired(t, ws)
		if s := dw.Stats(); s.Full != wantFull || s.Incremental != wantIncr {
			t.Fatalf("stats = %+v, want Full %d Incremental %d", s, wantFull, wantIncr)
		}
	}

	check(1, 0) // first computation: full
	check(1, 1) // unchanged snapshot: free repair (empty dirty set)

	dw.dirtyCrossover, dw.affectedCrossover = 1, 1 // everything repairs
	before := dw.Stats().DirtyVertices
	state.Status[14].BatteryLevel = 3
	check(1, 2) // one drained node: incremental
	if dw.Stats().DirtyVertices <= before {
		t.Fatal("incremental repair did not record dirty vertices")
	}
	for i := range state.Status {
		state.Status[i].BatteryLevel = 1
	}
	check(1, 3) // broad change, permissive crossover: still incremental

	dw.dirtyCrossover, dw.affectedCrossover = 0, 0 // any dirty vertex is past the boundary
	state.Status[15].BatteryLevel = 3
	check(2, 3)

	dw.SetMode(RecomputeFull)
	dw.dirtyCrossover, dw.affectedCrossover = 1, 1
	state.Status[16].BatteryLevel = 0
	check(3, 3)
	if dw.mode != RecomputeFull {
		t.Fatalf("mode = %v, want full", dw.mode)
	}

	dw.SetMode(RecomputeIncremental)
	state.Status[17].BatteryLevel = 0
	check(3, 4)
}

// TestDeltaComputeSteadyStateZeroAllocs is the perf regression guard for the
// controller hot path, in both modes: once the workspace buffers (including
// both ping-pong table buffers, both weight matrices and the repair scratch)
// are warm, recomputing the three-phase plan with changing battery levels
// and chained prev tables, exactly like the simulator's frame loop, must
// not allocate.
func TestDeltaComputeSteadyStateZeroAllocs(t *testing.T) {
	for _, mode := range []RecomputeMode{RecomputeIncremental, RecomputeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			mesh := topology.MustMesh(8, 8, 1)
			state := fullState(mesh.Graph, 8)
			dests := checkerboardDests(mesh.Graph)
			dw := NewDeltaWorkspace()
			dw.SetMode(mode)
			// Hoisted interface value: converting the EAR struct to the
			// Algorithm interface allocates, and the simulator holds its
			// algorithm as an interface field for the same reason.
			var alg Algorithm = NewEAR()
			var prev *Tables
			// Warm-ups; in incremental mode the third call takes the repair.
			for i := 0; i < 3; i++ {
				state.Status[i].BatteryLevel = 6
				prev = dw.ComputeInto(alg, state, dests, prev).Tables
			}
			if mode == RecomputeFull {
				assertNeverRepaired(t, dw)
			} else if dw.Stats().Incremental == 0 {
				t.Fatal("warm-up never exercised the incremental path")
			}
			// Every few steps node 9 enters or leaves a deadlock, so the
			// deadlocked-row path of phase 3 runs inside the guard too.
			step := 0
			allocs := testing.AllocsPerRun(64, func() {
				st := &state.Status[step%len(state.Status)]
				st.BatteryLevel = (st.BatteryLevel + 1) % 8
				if step%4 == 0 {
					state.Status[9].Deadlocked = !state.Status[9].Deadlocked
				}
				step++
				prev = dw.ComputeInto(alg, state, dests, prev).Tables
			})
			if allocs != 0 {
				t.Errorf("steady-state ComputeInto allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// benchDrain drives one battery-threshold crossing per iteration through a
// DeltaWorkspace in the given mode — the controller hot path the scaling
// claim is about.
func benchDrain(b *testing.B, meshSize int, mode RecomputeMode) {
	mesh := topology.MustMesh(meshSize, meshSize, 1)
	state := fullState(mesh.Graph, 8)
	dests := checkerboardDests(mesh.Graph)
	dw := NewDeltaWorkspace()
	dw.SetMode(mode)
	var alg Algorithm = NewEAR()
	var prev *Tables
	for i := 0; i < 3; i++ {
		state.Status[i].BatteryLevel = 6
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &state.Status[i%len(state.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
}

// BenchmarkIncrementalRecompute measures the per-threshold-crossing recompute cost for the full pass vs the
// incremental repair as the mesh grows. The full pass is capped at 32x32
// (1024 nodes, about 0.25 s/op with the AVX2 min-plus kernel); 64x64 (4096
// nodes) appears only under the incremental column, since a full pass
// there costs 64 times as much at O(K³).
func BenchmarkIncrementalRecompute(b *testing.B) {
	for _, meshSize := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("full/%dx%d", meshSize, meshSize), func(b *testing.B) {
			benchDrain(b, meshSize, RecomputeFull)
		})
	}
	for _, meshSize := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("incremental/%dx%d", meshSize, meshSize), func(b *testing.B) {
			benchDrain(b, meshSize, RecomputeIncremental)
		})
	}
}

// BenchmarkDeltaCrossover measures where the repair loses to the full pass
// on the 16x16 mesh: each sub-benchmark drains a fixed number of nodes per
// recompute. Each drained node puts itself and its in-neighbours in the
// policy set, which the crossover judges, but only itself in the pivot set,
// which the repair pivots on. The measured break-even backs the default
// crossover constants in delta.go.
func BenchmarkDeltaCrossover(b *testing.B) {
	const meshSize = 16
	run := func(b *testing.B, drained int, mode RecomputeMode) {
		mesh := topology.MustMesh(meshSize, meshSize, 1)
		state := fullState(mesh.Graph, 8)
		dests := checkerboardDests(mesh.Graph)
		dw := NewDeltaWorkspace()
		dw.SetMode(mode)
		dw.dirtyCrossover, dw.affectedCrossover = 1, 1 // measure the repair itself, not the policy
		var alg Algorithm = NewEAR()
		var prev *Tables
		for i := 0; i < 3; i++ {
			state.Status[i].BatteryLevel = 6
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < drained; d++ {
				st := &state.Status[(i*drained+d*5)%len(state.Status)]
				st.BatteryLevel = (st.BatteryLevel + 1) % 8
			}
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
	}
	b.Run("full", func(b *testing.B) { run(b, 1, RecomputeFull) })
	for _, drained := range []int{1, 2, 4, 8, 16, 24, 32, 51, 64, 80, 96, 128} {
		b.Run(fmt.Sprintf("repair/drained-%d", drained), func(b *testing.B) {
			run(b, drained, RecomputeIncremental)
		})
	}
}
