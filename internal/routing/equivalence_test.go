package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// This file pins the dense, slice-backed control plane to the semantics of
// the original map-backed implementation: refCompute below is a faithful
// transcription of the pre-refactor phases 1-3 (map snapshot, [][]float64
// matrices, map tables), and the equivalence test asserts that the
// DeltaWorkspace, in both its full and its incremental mode, produces the
// reference's plans on meshes 4-8 with dead nodes, deadlock flags and link
// faults.

// refTable mirrors the old map-backed Table.
type refTable struct {
	byModule  map[app.ModuleID]Route
	nextHopTo map[topology.NodeID]topology.NodeID
}

// refCompute is the pre-refactor routing computation, kept verbatim (modulo
// the map-based snapshot being reconstructed from the dense one).
func refCompute(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev map[topology.NodeID]refTable) (dist [][]float64, succ [][]topology.NodeID, tables map[topology.NodeID]refTable) {
	k := state.Graph.NodeCount()
	status := make(map[topology.NodeID]NodeStatus, k)
	for i, st := range state.Status {
		status[topology.NodeID(i)] = st
	}
	alive := func(id topology.NodeID) bool { return status[id].Alive }

	// Phase 1: weight matrix.
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			if i != j {
				w[i][j] = Inf
			}
		}
	}
	params := DefaultEARParams()
	if e, ok := alg.(EAR); ok && e.Params.Levels != 0 {
		params = e.Params
	}
	for _, l := range state.Graph.Links() {
		if !alive(l.From) || !alive(l.To) {
			continue
		}
		if alg.NeedsBatteryInfo() {
			w[l.From][l.To] = params.Penalty(status[l.To].BatteryLevel) * l.LengthCM
		} else {
			w[l.From][l.To] = l.LengthCM
		}
	}

	// Phase 2: Floyd-Warshall with successor matrix.
	dist, succ = refFloyd(w)

	// Phase 3: routing tables.
	tables = make(map[topology.NodeID]refTable, k)
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		if !alive(node) {
			continue
		}
		table := refTable{
			byModule:  make(map[app.ModuleID]Route, len(destinations)),
			nextHopTo: make(map[topology.NodeID]topology.NodeID, k),
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			if dest == node || !alive(dest) {
				continue
			}
			if dist[node][dest] < Inf {
				table.nextHopTo[dest] = succ[node][dest]
			}
		}
		deadlocked := status[node].Deadlocked
		for moduleID, dups := range destinations {
			blockedHop := topology.Invalid
			if deadlocked && prev != nil {
				if prevRoute, ok := prev[node].byModule[moduleID]; ok {
					blockedHop = prevRoute.NextHop
				}
			}
			best := Route{Dest: topology.Invalid, NextHop: topology.Invalid, Distance: Inf}
			fallback := best
			for _, dup := range dups {
				if !alive(dup) || dist[node][dup] == Inf {
					continue
				}
				hop := succ[node][dup]
				candidate := Route{Dest: dup, NextHop: hop, Distance: dist[node][dup]}
				if better(candidate, fallback) {
					fallback = candidate
				}
				if blockedHop != topology.Invalid && hop == blockedHop && dup != node {
					continue
				}
				if better(candidate, best) {
					best = candidate
				}
			}
			if !best.Valid() {
				best = fallback
			}
			table.byModule[moduleID] = best
		}
		tables[node] = table
	}
	return dist, succ, tables
}

// refFloyd is the Floyd–Warshall of Fig 5 with its smaller-successor
// tie-break, one loop relaxing distances and successors together, as the
// full pass ran before ComputeFrom split them into min-plus distances and
// argmin first hops. W's diagonal must be 0.
func refFloyd(w [][]float64) (dist [][]float64, succ [][]topology.NodeID) {
	k := len(w)
	dist = make([][]float64, k)
	succ = make([][]topology.NodeID, k)
	for i := 0; i < k; i++ {
		dist[i] = make([]float64, k)
		succ[i] = make([]topology.NodeID, k)
		for j := 0; j < k; j++ {
			dist[i][j] = w[i][j]
			switch {
			case i == j:
				succ[i][j] = topology.NodeID(i)
			case w[i][j] < Inf:
				succ[i][j] = topology.NodeID(j)
			default:
				succ[i][j] = topology.Invalid
			}
		}
	}
	for n := 0; n < k; n++ {
		for i := 0; i < k; i++ {
			if i == n || dist[i][n] == Inf {
				continue
			}
			for j := 0; j < k; j++ {
				if j == n || j == i || dist[n][j] == Inf {
					continue
				}
				through := dist[i][n] + dist[n][j]
				switch {
				case through < dist[i][j]:
					dist[i][j] = through
					succ[i][j] = succ[i][n]
				case through == dist[i][j] && succ[i][n] != topology.Invalid &&
					(succ[i][j] == topology.Invalid || succ[i][n] < succ[i][j]):
					succ[i][j] = succ[i][n]
				}
			}
		}
	}
	return dist, succ
}

// assertMatchesFloyd asserts that sp, computed from w, holds refFloyd's
// distances and successors bit for bit.
func assertMatchesFloyd(t *testing.T, w *Matrix, sp *ShortestPaths) {
	t.Helper()
	k := w.Dim()
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = w.Row(i)
	}
	dist, succ := refFloyd(rows)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			from, to := topology.NodeID(i), topology.NodeID(j)
			if got, want := sp.Dist(from, to), dist[i][j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dist(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got, want := sp.Succ(from, to), succ[i][j]; got != want {
				t.Fatalf("Succ(%d,%d) = %d, want %d (dist %v)", i, j, got, want, dist[i][j])
			}
		}
	}
}

// TestComputeFromMatchesFloydReference holds the full pass to refFloyd on
// meshes 4-16 under SDR and EAR (Q 2 and 0.5, 8 and 33 levels), with random
// battery levels, dead nodes and dropped links. The EAR penalties are
// powers of two and the lengths integers, so every path sum is exact and
// the canonical fixpoint (true distances, minimum first hop among all
// shortest paths) is unique: both computations must reach it. Each case
// runs once per minPlusRow path the host has (go, avx2).
func TestComputeFromMatchesFloydReference(t *testing.T) {
	algs := []Algorithm{SDR{}}
	for _, q := range []float64{2, 0.5} {
		for _, levels := range []int{8, 33} {
			algs = append(algs, EAR{Params: EARParams{Q: q, Levels: levels}})
		}
	}
	for _, meshSize := range []int{4, 5, 6, 8, 12, 16} {
		for a, alg := range algs {
			levels, name := 8, alg.Name()
			if e, ok := alg.(EAR); ok {
				levels = e.Params.Levels
				name = fmt.Sprintf("EAR-Q%g-%dlevels", e.Params.Q, levels)
			}
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, name), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize*8+a)); err != nil {
					t.Fatal(err)
				}
				for _, avx2 := range kernelPaths() {
					t.Run(kernelName(avx2), func(t *testing.T) {
						useKernel(t, avx2)
						rng := rand.New(rand.NewSource(int64(meshSize*8 + a)))
						state := fullState(mesh.Graph, levels)
						var w Matrix
						var sp ShortestPaths
						for round := 0; round < 2; round++ {
							for i := range state.Status {
								state.Status[i] = NodeStatus{
									Alive:        round == 0 || rng.Float64() > 0.1,
									BatteryLevel: rng.Intn(levels),
								}
							}
							alg.WeightsInto(&w, state)
							sp.ComputeFrom(&w)
							assertMatchesFloyd(t, &w, &sp)
						}
					})
				}
			})
		}
	}
}

// FuzzComputeFromMatchesFloyd holds the full pass to refFloyd on random
// directed graphs of up to 24 vertices whose weights are small dyadic
// rationals (so sums are exact and ties are common), with a share of the
// edges missing, on every minPlusRow path the host has. The seed corpus is in
// testdata/fuzz/FuzzComputeFromMatchesFloyd.
func FuzzComputeFromMatchesFloyd(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, missing uint8, seed uint64) {
		k := 1 + int(size)%24
		rng := rand.New(rand.NewSource(int64(seed)))
		var w Matrix
		w.Reset(k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Intn(256) >= int(missing) {
					// 1..8 times 2^-2..2^2.
					w.Set(i, j, math.Ldexp(float64(1+rng.Intn(8)), rng.Intn(5)-2))
				}
			}
		}
		for _, avx2 := range kernelPaths() {
			useKernel(t, avx2)
			var sp ShortestPaths
			sp.ComputeFrom(&w)
			assertMatchesFloyd(t, &w, &sp)
		}
	})
}

// comparePlan asserts a dense plan matches the reference output exactly.
func comparePlan(t *testing.T, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, plan *Plan, dist [][]float64, succ [][]topology.NodeID, tables map[topology.NodeID]refTable) {
	t.Helper()
	k := state.Graph.NodeCount()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			from, to := topology.NodeID(i), topology.NodeID(j)
			if got, want := plan.Paths.Dist(from, to), dist[i][j]; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("Dist(%d,%d) = %g, want %g", i, j, got, want)
			}
			if got, want := plan.Paths.Succ(from, to), succ[i][j]; got != want {
				t.Fatalf("Succ(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		ref, refHas := tables[node]
		if plan.Tables.Has(node) != refHas {
			t.Fatalf("Has(%d) = %v, want %v", n, plan.Tables.Has(node), refHas)
		}
		for moduleID := range destinations {
			got, gotOK := plan.Tables.RouteTo(node, moduleID)
			want, wantOK := ref.byModule[moduleID]
			if !refHas {
				want, wantOK = Route{}, false
			}
			if gotOK != wantOK || got != want {
				t.Fatalf("RouteTo(%d, %d) = %+v,%v, want %+v,%v", n, moduleID, got, gotOK, want, wantOK)
			}
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			want := topology.Invalid
			if refHas {
				if node == dest {
					want = dest
				} else if hop, ok := ref.nextHopTo[dest]; ok {
					want = hop
				}
			}
			if got := plan.Tables.NextHop(node, dest); got != want {
				t.Fatalf("NextHop(%d,%d) = %d, want %d", n, d, got, want)
			}
		}
	}
}

// TestDenseComputeMatchesMapReference drives the reference and two
// DeltaWorkspaces, one per recompute mode, over meshes 4-8 with randomized
// battery levels, dead nodes, deadlock flags and link faults, chaining each
// computation's tables into the next as prev so the deadlock-avoidance path
// is exercised against real previous tables. Each randomized round is
// followed by drain-only steps that keep liveness fixed, which the
// incremental workspace repairs instead of recomputing.
func TestDenseComputeMatchesMapReference(t *testing.T) {
	for _, meshSize := range []int{4, 5, 6, 7, 8} {
		for _, alg := range []Algorithm{SDR{}, NewEAR()} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, alg.Name()), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				rng := rand.New(rand.NewSource(int64(meshSize)*31 + int64(len(alg.Name()))))
				// Link faults: remove ~10% of the woven interconnects.
				if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				k := mesh.Graph.NodeCount()
				dests := checkerboardDests(mesh.Graph)

				state := fullState(mesh.Graph, 8)
				full := newFullWorkspace()
				incr := NewDeltaWorkspace()
				incr.dirtyCrossover, incr.affectedCrossover = 1, 1 // repair every drain step, whatever the mesh size
				var fullPrev, incrPrev *Tables
				var refPrev map[topology.NodeID]refTable
				check := func() {
					t.Helper()
					dist, succ, refTables := refCompute(alg, state, dests, refPrev)
					fPlan := full.ComputeInto(alg, state, dests, fullPrev)
					comparePlan(t, state, dests, fPlan, dist, succ, refTables)
					iPlan := incr.ComputeInto(alg, state, dests, incrPrev)
					comparePlan(t, state, dests, iPlan, dist, succ, refTables)
					fullPrev, incrPrev, refPrev = fPlan.Tables, iPlan.Tables, refTables
				}
				for round := 0; round < 6; round++ {
					for i := 0; i < k; i++ {
						state.Status[i] = NodeStatus{
							Alive:        rng.Float64() > 0.15,
							BatteryLevel: rng.Intn(8),
							Deadlocked:   rng.Float64() < 0.2,
						}
					}
					check()
					for step := 0; step < 3; step++ {
						st := &state.Status[rng.Intn(k)]
						st.BatteryLevel = rng.Intn(8)
						st.Deadlocked = rng.Float64() < 0.2
						check()
					}
				}
				assertNeverRepaired(t, full)
				if s := incr.Stats(); s.Incremental == 0 || (alg.NeedsBatteryInfo() && s.Pivots == 0) {
					t.Fatalf("drain steps never exercised the repair: %+v", s)
				}
			})
		}
	}
}

// refPivotPass is pivotPass as Fig 5 spells it: one pivot's relaxation with
// the j == n, j == i and d(n,j) = Inf cells skipped and both Invalid tests of
// the tie-break written out.
func refPivotPass(sp *ShortestPaths, n int) {
	k := sp.n
	distN := sp.dist.Row(n)[:k]
	for i := 0; i < k; i++ {
		if i == n {
			continue
		}
		distI := sp.dist.Row(i)[:k]
		din := distI[n]
		if din == Inf {
			continue
		}
		succI := sp.succ[i*k : (i+1)*k][:k]
		sin := succI[n]
		for j, dij := range distI {
			dnj := distN[j]
			if j == n || j == i || dnj == Inf {
				continue
			}
			through := din + dnj
			switch {
			case through < dij:
				distI[j] = through
				succI[j] = sin
			case through == dij && sin != topology.Invalid &&
				(succI[j] == topology.Invalid || sin < succI[j]):
				succI[j] = sin
			}
		}
	}
}

// pivotPass is one whole pivot pass on n: pivotRow over every row but n,
// which the pass reads and never writes.
func (sp *ShortestPaths) pivotPass(n int) {
	distN := sp.dist.Row(n)
	for i := 0; i < sp.n; i++ {
		if i != n {
			sp.pivotRow(i, n, distN)
		}
	}
}

// checkPivotPasses holds pivotPass to refPivotPass from sp's state: each
// pivot of alone (every pivot when alone is nil) on a fresh copy, then every
// pivot in ascending order on one running copy, comparing distance bits and
// successors after each pass. sp is not modified.
func checkPivotPasses(t testing.TB, sp *ShortestPaths, alone []int) {
	t.Helper()
	k := sp.n
	var got, want ShortestPaths
	same := func(what string, n int) {
		t.Helper()
		for x := range want.succ {
			if math.Float64bits(got.dist.cells[x]) != math.Float64bits(want.dist.cells[x]) || got.succ[x] != want.succ[x] {
				t.Fatalf("%s, pivot %d: (%d, %d) = dist %g succ %d, reference dist %g succ %d",
					what, n, x/k, x%k, got.dist.cells[x], got.succ[x], want.dist.cells[x], want.succ[x])
			}
		}
	}
	if alone == nil {
		for n := 0; n < k; n++ {
			alone = append(alone, n)
		}
	}
	for _, n := range alone {
		got.copyFrom(sp)
		want.copyFrom(sp)
		got.pivotPass(n)
		refPivotPass(&want, n)
		same("single pass", n)
	}
	got.copyFrom(sp)
	want.copyFrom(sp)
	for n := 0; n < k; n++ {
		got.pivotPass(n)
		refPivotPass(&want, n)
		same("ascending passes", n)
	}
}

// halfRepair runs a repair on dw up to its pivot passes: the new weights of
// state are diffed against dw's last ones, every destination is marked and
// re-labelled, and dw.sp is left as the pivot passes would find it. It
// reports whether the weights changed at all.
func halfRepair(dw *DeltaWorkspace, alg Algorithm, state *SystemState) bool {
	k := dw.sp.n
	next := &dw.w[dw.cur^1]
	alg.WeightsInto(next, state)
	dw.grow(k)
	if dirty, _ := dw.diffDirty(next, &dw.w[dw.cur], k); dirty == 0 {
		return false
	}
	s := &dw.scratch[0]
	// The marking descends the old successor trees over the old edges, the
	// re-labelling relaxes the new ones.
	dw.buildAdjacency(&dw.w[dw.cur], k)
	for j := 0; j < k; j++ {
		dw.markAffected(j, k, dw.col(j, k), s)
	}
	dw.buildAdjacency(next, k)
	for j := 0; j < k; j++ {
		dw.repairColumn(j, k, next, dw.col(j, k), s)
	}
	return true
}

// TestPivotPassMatchesReference holds the one-branch pivot pass to Fig 5's
// loop bit for bit on random EAR states of 4x4 to 16x16 meshes with dead
// nodes and dropped links, at Q = 2 (exact sums, ties everywhere) and
// Q = 21.3 (rounded sums). Each state is half-repaired after a few battery
// crossings, with the pairs the re-labelling found no clean route for reset
// to Inf and Invalid, and checked as it is and (up to 12x12) again with a
// share of its other pairs reset the same way. Every pivot runs in the
// ascending sequence; on 16x16 only the repair's own pivots and a few
// others also run alone from the state, which keeps the race-detector run
// short.
func TestPivotPassMatchesReference(t *testing.T) {
	invalid := 0 // Invalid successors across the half-repaired states
	for _, meshSize := range []int{4, 6, 8, 12, 16} {
		for _, q := range []float64{2, 21.3} {
			t.Run(fmt.Sprintf("%dx%d/Q%g", meshSize, meshSize, q), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				g := mesh.Graph.Clone()
				if _, _, err := topology.FailLinks(g, 0.1, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				k := g.NodeCount()
				rng := rand.New(rand.NewSource(int64(meshSize)*10 + int64(q)))
				var alg Algorithm = EAR{Params: EARParams{Q: q, Levels: 8}}
				state := fullState(g, 8)
				for n := range state.Status {
					state.Status[n] = NodeStatus{Alive: rng.Intn(10) > 0, BatteryLevel: rng.Intn(8)}
				}
				dw := NewDeltaWorkspace()
				dw.ComputeInto(alg, state, checkerboardDests(g), nil)

				for h := 0; h < 1+meshSize/4; h++ {
					st := &state.Status[rng.Intn(k)]
					st.BatteryLevel = (st.BatteryLevel + 1 + rng.Intn(7)) % 8
				}
				if !halfRepair(dw, alg, state) {
					t.Fatal("the battery crossings changed no weight")
				}
				for x, s := range dw.sp.succ {
					if x/k != x%k && s == topology.Invalid {
						invalid++
					}
				}
				var alone []int
				if meshSize == 16 {
					alone = append(alone, dw.heads...)
					for n := 0; n < 8; n++ {
						alone = append(alone, rng.Intn(k))
					}
				}
				checkPivotPasses(t, &dw.sp, alone)
				if meshSize == 16 {
					return
				}

				for x := range dw.sp.succ {
					if x/k != x%k && rng.Intn(8) == 0 {
						dw.sp.dist.cells[x], dw.sp.succ[x] = Inf, topology.Invalid
					}
				}
				checkPivotPasses(t, &dw.sp, alone)
			})
		}
	}
	if invalid == 0 {
		t.Fatal("no half-repaired state had an Invalid successor")
	}
}

// FuzzPivotPass holds the one-branch pivot pass to Fig 5's loop on random
// directed graphs of up to 12 vertices whose weights are small dyadic
// rationals (so sums are exact and ties are common), with a fuzzed share of
// the edges missing. The full pass's result is then disturbed the way a
// half-finished repair leaves it: a fuzzed share of the off-diagonal pairs
// is reset to Inf and Invalid or raised to a longer dyadic distance with an
// arbitrary first hop. The seed corpus is in testdata/fuzz/FuzzPivotPass.
func FuzzPivotPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, missing, disturbed uint8, seed uint64) {
		k := 1 + int(size)%12
		rng := rand.New(rand.NewSource(int64(seed)))
		dyadic := func() float64 { return math.Ldexp(float64(1+rng.Intn(8)), rng.Intn(5)-2) }
		var w Matrix
		w.Reset(k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Intn(256) >= int(missing) {
					w.Set(i, j, dyadic())
				}
			}
		}
		var sp ShortestPaths
		sp.ComputeFrom(&w)
		for x := range sp.succ {
			if x/k == x%k || rng.Intn(256) >= int(disturbed) {
				continue
			}
			if rng.Intn(2) == 0 {
				sp.dist.cells[x], sp.succ[x] = Inf, topology.Invalid
			} else {
				sp.dist.cells[x] += dyadic()
				sp.succ[x] = topology.NodeID(rng.Intn(k+1) - 1)
			}
		}
		checkPivotPasses(t, &sp, nil)
	})
}
