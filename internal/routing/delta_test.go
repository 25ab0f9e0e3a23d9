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
// zero-alloc steady-state guard, and the benchmarks behind
// BENCH_incremental.json.

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
	for i := range gt.nextHop {
		if gt.nextHop[i] != wt.nextHop[i] {
			t.Fatalf("nextHop[%d][%d] = %d, want %d", i/gt.nodes, i%gt.nodes, gt.nextHop[i], wt.nextHop[i])
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints diverged despite identical contents")
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

// TestDeltaMatchesFullRecompute drives a DeltaWorkspace and a plain
// Workspace in lockstep — each chaining its own prev tables, exactly like a
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
				ws := NewWorkspace()
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
					fPlan := ComputeInto(ws, alg, state, dests, fPrev)
					assertPlansIdentical(t, dPlan, fPlan)
					dPrev, fPrev = dPlan.Tables, fPlan.Tables
				}
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
	ws := NewWorkspace()
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
		fPlan := ComputeInto(ws, alg, state, dests, fPrev)
		assertPlansIdentical(t, dPlan, fPlan)
		dPrev, fPrev = dPlan.Tables, fPlan.Tables
	}
	stats := dw.Stats()
	if stats.Incremental == 0 || stats.Full == 0 {
		t.Fatalf("soak did not exercise both paths: %+v", stats)
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
			w := NewMatrix(k)
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
			ws := NewWorkspace()
			var dPrev, fPrev *Tables
			crossovers := [][2]float64{{0, 0}, {0.05, 0.02}, {0.3, 0.1}, {1, 1}}
			for step := 0; step < 400; step++ {
				if step%25 == 0 {
					c := crossovers[(step/25)%len(crossovers)]
					dw.SetCrossover(c[0], c[1])
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
				fPlan := ComputeInto(ws, alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
			}
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
			w := NewMatrix(k)
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
			dw.SetCrossover(1, 1)
			ws := NewWorkspace()
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
							l := out[rng.Intn(len(out))]
							nudge(l.From, l.To)
							v = l.To
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
				fPlan := ComputeInto(ws, alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
				if step > 0 && dw.Stats().Incremental != before+1 {
					t.Fatalf("step %d was not repaired: %+v", step, dw.Stats())
				}
			}
			if s := dw.Stats(); s.DirtyVertices == 0 || s.AffectedPairs == 0 {
				t.Fatalf("repairs never touched a dirty vertex: %+v", s)
			}
		})
	}
}

// TestSettleHeapPopOrder pins the settle heap to the linear scan it
// replaced: with heavily tied labels and random decrease-keys between pops,
// every pop must be the (label, id) minimum of the unsettled set. With
// strictly positive weights, equal-label vertices never relax each other,
// so the repaired matrices cannot show the order among ties; this test is
// what holds the id tie-break.
func TestSettleHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 64
	label := make([]float64, k)
	pos := make([]int32, k)
	for round := 0; round < 200; round++ {
		for i := range pos {
			pos[i] = -1
		}
		var heap, scan []int
		for v := 0; v < k; v++ {
			if rng.Intn(3) > 0 {
				label[v] = float64(rng.Intn(6))
				if rng.Intn(8) == 0 {
					label[v] = Inf
				}
				heap = append(heap, v)
				scan = append(scan, v)
			}
		}
		heapInit(heap, pos, label)
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

			var v int
			v, heap = heapPop(heap, pos, label)
			if v != want {
				t.Fatalf("round %d: heap popped %d (label %g), scan picks %d (label %g)", round, v, label[v], want, label[want])
			}
			if pos[v] != -1 {
				t.Fatalf("round %d: popped vertex %d still has slot %d", round, v, pos[v])
			}
			// Lower a few remaining labels, often onto an existing tie.
			for d := 0; d < rng.Intn(4) && len(scan) > 0; d++ {
				u := scan[rng.Intn(len(scan))]
				if nl := label[v] + float64(rng.Intn(3)); nl < label[u] {
					label[u] = nl
					siftUp(heap, pos, label, int(pos[u]))
				}
			}
		}
	}
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
	ws := NewWorkspace()
	check := func(wantFull, wantIncr int) {
		t.Helper()
		dPlan := dw.ComputeInto(alg, state, dests, nil)
		fPlan := ComputeInto(ws, alg, state, dests, nil)
		assertPlansIdentical(t, dPlan, fPlan)
		if s := dw.Stats(); s.Full != wantFull || s.Incremental != wantIncr {
			t.Fatalf("stats = %+v, want Full %d Incremental %d", s, wantFull, wantIncr)
		}
	}

	check(1, 0) // first computation: full
	check(1, 1) // unchanged snapshot: free repair (empty dirty set)

	dw.SetCrossover(1, 1) // everything repairs
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

	dw.SetCrossover(0, 0) // any dirty vertex is past the boundary
	state.Status[15].BatteryLevel = 3
	check(2, 3)

	dw.SetMode(RecomputeFull)
	dw.SetCrossover(1, 1)
	state.Status[16].BatteryLevel = 0
	check(3, 3)
	if dw.Mode() != RecomputeFull {
		t.Fatalf("mode = %v, want full", dw.Mode())
	}

	dw.SetMode(RecomputeIncremental)
	state.Status[17].BatteryLevel = 0
	check(3, 4)
}

// TestDeltaComputeSteadyStateZeroAllocs extends the PR 3 zero-alloc
// contract to the incremental path: once the workspace (including the
// repair scratch) is warm, battery-drain recomputes must not allocate.
func TestDeltaComputeSteadyStateZeroAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8, 1)
	state := fullState(mesh.Graph, 8)
	dests := checkerboardDests(mesh.Graph)
	dw := NewDeltaWorkspace()
	var alg Algorithm = NewEAR()
	var prev *Tables
	// Warm-ups: size both ping-pong table buffers, both weight matrices and
	// the repair scratch (the third call takes the incremental path).
	for i := 0; i < 3; i++ {
		state.Status[i].BatteryLevel = 6
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
	if dw.Stats().Incremental == 0 {
		t.Fatal("warm-up never exercised the incremental path")
	}
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		st := &state.Status[step%len(state.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		step++
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	})
	if allocs != 0 {
		t.Errorf("steady-state DeltaWorkspace.ComputeInto allocated %.1f times per run, want 0", allocs)
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

// BenchmarkIncrementalRecompute is the BENCH_incremental.json source: the
// per-threshold-crossing recompute cost for the full pass vs the
// incremental repair as the mesh grows. The full pass is capped at 32x32
// (1024 nodes, ~1 s/op); 64x64 (4096 nodes) appears only under the
// incremental column — that sweep was simply infeasible at O(K³).
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
// recompute (each drained node dirties itself and its in-neighbours). The
// measured break-even backs the default crossover constants in delta.go.
func BenchmarkDeltaCrossover(b *testing.B) {
	const meshSize = 16
	run := func(b *testing.B, drained int, mode RecomputeMode) {
		mesh := topology.MustMesh(meshSize, meshSize, 1)
		state := fullState(mesh.Graph, 8)
		dests := checkerboardDests(mesh.Graph)
		dw := NewDeltaWorkspace()
		dw.SetMode(mode)
		dw.SetCrossover(1, 1) // measure the repair itself, not the policy
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
	for _, drained := range []int{1, 2, 4, 8, 16, 24, 32, 51} {
		b.Run(fmt.Sprintf("repair/drained-%d", drained), func(b *testing.B) {
			run(b, drained, RecomputeIncremental)
		})
	}
}
