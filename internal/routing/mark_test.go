package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// This file pins the repair's decision half: the policy that splits
// recomputes between the repair and the full pass (TestDeltaStatsPinned),
// the marking descent that labels both the policy set the split judges and
// the pivot set the repair re-labels, over the old successor trees' edges,
// and the rule that a bailout leaves phase 2 untouched.

// TestDeltaStatsPinned pins the full/incremental split and the repair
// volume counters on two 16x16 EAR trajectories under the default
// crossover thresholds. The split is part of sim.Result (and of the bench
// goldens, which the root module's tests never run), so a change to how
// the repair marks or decides must keep every counter exact.
func TestDeltaStatsPinned(t *testing.T) {
	const meshSize = 16
	t.Run("drain", func(t *testing.T) {
		mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
		g := mesh.Graph
		k := g.NodeCount()
		state := fullState(g, 8)
		dests := checkerboardDests(g)
		rng := rand.New(rand.NewSource(2))
		dw := NewDeltaWorkspace()
		var alg Algorithm = NewEAR()
		var prev *Tables
		for round := 0; round < 48; round++ {
			// Mostly one to three crossings a round; every eighth round a
			// burst of 4-11, which the affected threshold may reject, and
			// every sixteenth a burst of 16-23, past the dirty threshold.
			hits := 1 + rng.Intn(3)
			switch round % 16 {
			case 7:
				hits = 4 + rng.Intn(8)
			case 15:
				hits = 16 + rng.Intn(8)
			}
			for h := 0; h < hits; h++ {
				st := &state.Status[rng.Intn(k)]
				st.BatteryLevel = (st.BatteryLevel + 7) % 8
			}
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
		// Three bursts go to the dirty threshold and three to the affected
		// budget.
		want := DeltaStats{Full: 7, Incremental: 41, DirtyVertices: 389, AffectedPairs: 687972, Pivots: 83}
		if got := dw.Stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	})
	t.Run("links", func(t *testing.T) {
		mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
		g := mesh.Graph.Clone()
		k := g.NodeCount()
		state := fullState(g, 8)
		dests := checkerboardDests(g)
		rng := rand.New(rand.NewSource(1))
		links := mesh.Graph.Links()
		var failed []topology.Link
		dw := NewDeltaWorkspace()
		var alg Algorithm = NewEAR()
		var prev *Tables
		for round := 0; round < 48; round++ {
			// Heal all but the three newest failures, fail one or two
			// interconnects (twenty every twelfth round), and drain a node
			// every other round.
			for len(failed) > 3 {
				l := failed[0]
				failed = failed[1:]
				if err := g.AddBiLink(l.From, l.To, l.LengthCM); err != nil {
					t.Fatal(err)
				}
			}
			fail := 1 + rng.Intn(2)
			if round%12 == 11 {
				fail = 20
			}
			for n := fail; n > 0; n-- {
				l := links[rng.Intn(len(links))]
				if _, ok := g.Link(l.From, l.To); !ok {
					continue
				}
				if err := g.RemoveBiLink(l.From, l.To); err != nil {
					t.Fatal(err)
				}
				failed = append(failed, l)
			}
			if round%2 == 1 {
				st := &state.Status[rng.Intn(k)]
				st.BatteryLevel = (st.BatteryLevel + 7) % 8
			}
			state.TopologyEpoch++
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
		// Every 20-link burst and the heal after it go to the affected
		// budget.
		want := DeltaStats{Full: 8, Incremental: 40, DirtyVertices: 337, AffectedPairs: 630909, Pivots: 268}
		if got := dw.Stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	})
}

// refAffected is the marking walk over one set, without a memo. Source i
// is affected when its previous canonical path to j touches set (endpoints
// included), and every source, reachable or not, is affected when j itself
// is in set. A successor cycle, which no accepted weights may leave, panics.
func refAffected(succ []topology.NodeID, j, k int, set []bool) []bool {
	aff := make([]bool, k)
	for i := 0; i < k; i++ {
		if i == j {
			continue
		}
		if set[j] {
			aff[i] = true
			continue
		}
		for v, steps := i, 0; ; steps++ {
			if set[v] {
				aff[i] = true
				break
			}
			s := succ[v*k+j]
			if s == topology.Invalid || int(s) == j {
				break
			}
			if steps == k {
				panic(fmt.Sprintf("successor cycle from %d towards %d", i, j))
			}
			v = int(s)
		}
	}
	return aff
}

// refSets derives the policy set (both endpoints of every changed edge) and
// the pivot set (every changed edge's head) straight from two weight
// matrices.
func refSets(newW, oldW *Matrix) (policy, pivot []bool) {
	k := newW.Dim()
	policy, pivot = make([]bool, k), make([]bool, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if newW.At(i, j) != oldW.At(i, j) {
				policy[i], policy[j], pivot[j] = true, true, true
			}
		}
	}
	return policy, pivot
}

// checkMarks builds dw's in-lists from old, the weights dw's phase 2 was
// computed over, as the repair does before it marks, then runs
// markAffected on every destination and compares both labels of every
// source (the pivot-bit column and the policy bitset) and both counts with
// refAffected over each set alone. It returns how many (source,
// destination) pairs carried each label.
func checkMarks(t *testing.T, dw *DeltaWorkspace, old *Matrix, policySet, pivotSet []bool) (policyPairs, pivotPairs int) {
	t.Helper()
	k := dw.sp.n
	for v := 0; v < k; v++ {
		if got, want := dw.member[v]&policyBit != 0, policySet[v]; got != want {
			t.Fatalf("vertex %d: policy membership %v, want %v", v, got, want)
		}
		if got, want := dw.member[v]&pivotBit != 0, pivotSet[v]; got != want {
			t.Fatalf("vertex %d: pivot membership %v, want %v", v, got, want)
		}
	}
	dw.buildAdjacency(old, k)
	// The caller's scratch, worker slot 0, holds the policy labels.
	s := &dw.scratch[0]
	bit := func(set []uint64, i int) bool { return set[i>>6]>>(i&63)&1 != 0 }
	for j := 0; j < k; j++ {
		col := dw.col(j, k)
		policy, pivot := dw.markAffected(j, k, col, s)
		wantPolicy := refAffected(dw.sp.succ, j, k, policySet)
		wantPivot := refAffected(dw.sp.succ, j, k, pivotSet)
		np, nq := 0, 0
		for i := 0; i < k; i++ {
			if got := bit(s.policyCol, i); got != wantPolicy[i] {
				t.Fatalf("(%d, %d): policy label %v, want %v", i, j, got, wantPolicy[i])
			}
			if got := bit(col, i); got != wantPivot[i] {
				t.Fatalf("(%d, %d): pivot label %v, want %v", i, j, got, wantPivot[i])
			}
			if wantPolicy[i] {
				np++
			}
			if wantPivot[i] {
				nq++
			}
		}
		// No bit past the last vertex: repairColumn takes every set bit
		// of the column for a source.
		if r := k & 63; r != 0 && (col[len(col)-1]>>r != 0 || s.policyCol[len(col)-1]>>r != 0) {
			t.Fatalf("destination %d: a label past vertex %d", j, k-1)
		}
		if policy != np || pivot != nq {
			t.Fatalf("destination %d: counts (%d, %d), want (%d, %d)", j, policy, pivot, np, nq)
		}
		policyPairs += np
		pivotPairs += nq
	}
	return policyPairs, pivotPairs
}

// TestMarkAffectedMatchesSingleSetWalks holds the marking descent, which
// labels both sets, to a walk over each set alone: for every (source,
// destination) pair the policy and pivot labels must agree, and so must
// both counts. Random EAR states on 6x6 to 12x12 meshes with failed
// links and dead nodes take their sets from real weight diffs, in which
// directed links also vanish and come back; hand-built successor trees,
// with edges off the trees, cover a source that cannot reach the
// destination, a policy-only destination, a pivot-set destination and a
// policy-only vertex in the middle of a path.
func TestMarkAffectedMatchesSingleSetWalks(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for meshSize := 6; meshSize <= 12; meshSize++ {
			mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
			g := mesh.Graph.Clone()
			if _, _, err := topology.FailLinks(g, 0.15, uint64(meshSize)); err != nil {
				t.Fatal(err)
			}
			k := g.NodeCount()
			rng := rand.New(rand.NewSource(int64(meshSize)))
			state := fullState(g, 8)
			for n := range state.Status {
				state.Status[n].BatteryLevel = rng.Intn(8)
				state.Status[n].Alive = rng.Intn(12) > 0
			}
			var alg Algorithm = NewEAR()
			dw := NewDeltaWorkspace()
			dw.ComputeInto(alg, state, checkerboardDests(g), nil)
			var dropped []topology.Link
			policyPairs, pivotPairs := 0, 0
			for round := 0; round < 6; round++ {
				old := dw.w[dw.cur]
				next := &dw.w[dw.cur^1]
				// 1-6 battery crossings: the policy set's in-neighbours
				// sit in the middle of many paths.
				for h := 0; h < 1+rng.Intn(6); h++ {
					st := &state.Status[rng.Intn(k)]
					st.BatteryLevel = (st.BatteryLevel + 1 + rng.Intn(7)) % 8
				}
				// On odd rounds one direction of a link vanishes, on the
				// other rounds the links dropped so far come back.
				if round%2 == 1 {
					links := g.Links()
					l := links[rng.Intn(len(links))]
					if err := g.RemoveLink(l.From, l.To); err != nil {
						t.Fatal(err)
					}
					dropped = append(dropped, l)
				} else {
					for _, l := range dropped {
						if err := g.AddLink(l.From, l.To, l.LengthCM); err != nil {
							t.Fatal(err)
						}
					}
					dropped = dropped[:0]
				}
				state.TopologyEpoch++
				alg.WeightsInto(next, state)
				policySet, pivotSet := refSets(next, &old)
				dw.grow(k)
				dw.diffDirty(next, &old, k)
				p, q := checkMarks(t, dw, &old, policySet, pivotSet)
				policyPairs += p
				pivotPairs += q
				// Move on, so that each round walks other successor trees.
				dw.ComputeInto(alg, state, checkerboardDests(g), nil)
			}
			if pivotPairs == 0 || policyPairs <= pivotPairs {
				t.Fatalf("%dx%d: %d policy and %d pivot pairs, want a pivot pair and a policy-only pair", meshSize, meshSize, policyPairs, pivotPairs)
			}
		}
	})

	// 0 → 1 → 2 → 3 ← 5 with vertex 4 isolated (it reaches nothing and
	// nothing reaches it), and 2 → 6, 6 → 5 so that 6 reaches 3 through 5.
	// 1 → 6, 5 → 2 and 6 → 1 lie on no shortest path, so the descent must
	// tell the in-neighbours that are children from those that are not.
	var w Matrix
	w.Reset(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {5, 3}, {2, 6}, {6, 5}, {1, 6}, {5, 2}, {6, 1}} {
		w.Set(e[0], e[1], 1)
	}
	for _, tc := range []struct {
		name          string
		policy, pivot []int // pivot-set vertices join the policy set too
	}{
		{"unreachable source, clean destination", []int{2}, nil},
		{"policy-only destination", []int{3, 1}, []int{1}},
		{"pivot-set destination", []int{3}, []int{3}},
		{"policy-only vertex mid-path", []int{1, 5}, []int{5}},
		{"policy-only vertex above a pivot", []int{1, 2, 4}, []int{2, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dw := NewDeltaWorkspace()
			dw.sp.ComputeFrom(&w)
			k := w.Dim()
			dw.grow(k)
			policySet, pivotSet := make([]bool, k), make([]bool, k)
			for _, v := range tc.policy {
				policySet[v] = true
				dw.member[v] |= policyBit
			}
			for _, v := range tc.pivot {
				policySet[v], pivotSet[v] = true, true
				dw.member[v] |= policyBit | pivotBit
			}
			for v, m := range dw.member {
				switch m {
				case policyBit | pivotBit:
					dw.heads = append(dw.heads, v)
				case policyBit:
					dw.tails = append(dw.tails, v)
				}
			}
			checkMarks(t, dw, &w, policySet, pivotSet)
		})
	}
}

// FuzzMarkAffectedMatchesWalk holds the marking descent to refAffected on
// random EAR states of 4x4 to 12x12 meshes with a fuzzed share of dead nodes
// and of dropped directed links, at Q = 2 (exact sums) or Q = 21.3 (rounded
// sums). The workspace computes the state, repairs one change, and is then
// marked against a second change: 1 to 20 battery crossings, with some of
// the dropped links healed and as many others dropped. For every
// destination both labels and both counts must agree (checkMarks). The seed
// corpus is in testdata/fuzz/FuzzMarkAffectedMatchesWalk.
func FuzzMarkAffectedMatchesWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, dead, links, crossings uint8, inexact bool, seed uint64) {
		meshSize := 4 + int(size)%9
		g := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM).Graph.Clone()
		k := g.NodeCount()
		rng := rand.New(rand.NewSource(int64(seed)))
		q := 2.0
		if inexact {
			q = 21.3
		}
		var alg Algorithm = EAR{Params: EARParams{Q: q, Levels: 8}}
		state := fullState(g, 8)
		for n := range state.Status {
			// Up to a quarter of the nodes dead.
			state.Status[n] = NodeStatus{Alive: rng.Intn(256) >= int(dead)/4, BatteryLevel: rng.Intn(8)}
		}
		var dropped []topology.Link
		drop := func(n int) {
			for ; n > 0; n-- {
				all := g.Links()
				if len(all) == 0 {
					return
				}
				l := all[rng.Intn(len(all))]
				if err := g.RemoveLink(l.From, l.To); err != nil {
					t.Fatal(err)
				}
				dropped = append(dropped, l)
			}
		}
		cross := func(n int) {
			for ; n > 0; n-- {
				st := &state.Status[rng.Intn(k)]
				st.BatteryLevel = (st.BatteryLevel + 1 + rng.Intn(7)) % 8
			}
		}
		nLinks := int(links) % 16
		drop(nLinks)
		dests := checkerboardDests(g)
		dw := NewDeltaWorkspace()
		dw.ComputeInto(alg, state, dests, nil)
		cross(1 + rng.Intn(4))
		dw.ComputeInto(alg, state, dests, nil)

		// The change under test.
		heal := dropped[:len(dropped)/2]
		dropped = append([]topology.Link(nil), dropped[len(dropped)/2:]...)
		for _, l := range heal {
			if err := g.AddLink(l.From, l.To, l.LengthCM); err != nil {
				t.Fatal(err)
			}
		}
		drop(len(heal))
		cross(1 + int(crossings)%20)
		state.TopologyEpoch++
		old := dw.w[dw.cur]
		next := &dw.w[dw.cur^1]
		alg.WeightsInto(next, state)
		dw.grow(k)
		dw.diffDirty(next, &old, k)
		policySet, pivotSet := refSets(next, &old)
		checkMarks(t, dw, &old, policySet, pivotSet)
	})
}

// TestRepairMarksOverOldEdges runs the repair itself on 8x8 and 16x16 EAR
// trajectories in which one direction of a link on a successor tree
// vanishes, some rounds right after a full pass and some after a repair,
// and links come back. After each repair, every destination's pivot-bit
// column and policy count must be refAffected's over the successors and
// sets from before it. The vanished edge's tail is a child of its head in
// the old tree, so in-lists built from the new weights before marking miss
// it and its subtree.
func TestRepairMarksOverOldEdges(t *testing.T) {
	for _, meshSize := range []int{8, 16} {
		t.Run(fmt.Sprintf("%dx%d", meshSize, meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
			g := mesh.Graph.Clone()
			k := g.NodeCount()
			state := fullState(g, 8)
			dests := checkerboardDests(g)
			rng := rand.New(rand.NewSource(int64(meshSize)))
			var alg Algorithm = NewEAR()
			dw := NewDeltaWorkspace()
			var prev *Tables
			var dropped []topology.Link
			// Checked repairs whose diff saw a link vanish, right after a
			// full pass and right after a repair.
			afterFull, afterRepair := 0, 0
			for round := 0; round < 24; round++ {
				oldSucc := append([]topology.NodeID(nil), dw.sp.succ...)
				cut := false
				switch {
				case round == 0:
				case round%8 == 5:
					// A death forces a full pass, so the next round's
					// vanishing link is the first diff after it.
					st := &state.Status[rng.Intn(k)]
					st.Alive = !st.Alive
				case round%4 == 2:
					for _, l := range dropped {
						if err := g.AddLink(l.From, l.To, l.LengthCM); err != nil {
							t.Fatal(err)
						}
					}
					dropped = dropped[:0]
				default:
					// Drop u's first hop towards a random destination, in
					// that direction only.
					u, j := rng.Intn(k), rng.Intn(k)
					v := oldSucc[u*k+j]
					if v == topology.Invalid || int(v) == u {
						break
					}
					l, _ := g.Link(topology.NodeID(u), v)
					if err := g.RemoveLink(l.From, l.To); err != nil {
						t.Fatal(err)
					}
					dropped = append(dropped, l)
					cut = true
				}
				if round%3 == 0 {
					st := &state.Status[rng.Intn(k)]
					st.BatteryLevel = (st.BatteryLevel + 1 + rng.Intn(7)) % 8
				}
				state.TopologyEpoch++
				before, spFull := dw.Stats(), dw.spFull
				prev = dw.ComputeInto(alg, state, dests, prev).Tables
				// Only a repair of a changed weight marks.
				after := dw.Stats()
				if after.Incremental == before.Incremental || after.DirtyVertices == before.DirtyVertices {
					continue
				}
				if cut && spFull {
					afterFull++
				} else if cut {
					afterRepair++
				}
				// The previous weights stay in the other buffer until the
				// next Weigh.
				policySet, pivotSet := refSets(&dw.w[dw.cur], &dw.w[dw.cur^1])
				for j := 0; j < k; j++ {
					col := dw.col(j, k)
					wantPolicy := refAffected(oldSucc, j, k, policySet)
					wantPivot := refAffected(oldSucc, j, k, pivotSet)
					np := 0
					for i := 0; i < k; i++ {
						if got := col[i>>6]>>(i&63)&1 != 0; got != wantPivot[i] {
							t.Fatalf("round %d (%d, %d): pivot label %v, want %v", round, i, j, got, wantPivot[i])
						}
						if wantPolicy[i] {
							np++
						}
					}
					if got := int(dw.counts[j]); got != np {
						t.Fatalf("round %d, destination %d: policy count %d, want %d", round, j, got, np)
					}
				}
			}
			if afterFull == 0 || afterRepair == 0 {
				t.Fatalf("%d repairs with a vanished link after a full pass and %d after a repair, want both", afterFull, afterRepair)
			}
		})
	}
}

// TestRepairBailoutLeavesPhase2Untouched sets the affected budget so that
// it trips at the last destination, after every other column is marked:
// repair must return false with dist/succ and the counters exactly as they
// were, and the plan that follows must equal a full pass. A budget that
// also covers the last column must let the same change repair.
func TestRepairBailoutLeavesPhase2Untouched(t *testing.T) {
	mesh := topology.MustMesh(8, 8, topology.DefaultSpacingCM)
	g := mesh.Graph
	k := g.NodeCount()
	last := k - 1
	dests := checkerboardDests(g)
	var alg Algorithm = NewEAR()

	// start returns a workspace and a full-mode reference that computed the
	// first state, and drains the last node: it enters the pivot set, and
	// it and its in-neighbours the policy set.
	start := func() (dw, ref *DeltaWorkspace, state *SystemState, dPrev, fPrev *Tables) {
		state = fullState(g, 8)
		dw, ref = NewDeltaWorkspace(), newFullWorkspace()
		dPrev = dw.ComputeInto(alg, state, dests, nil).Tables
		fPrev = ref.ComputeInto(alg, state, dests, nil).Tables
		state.Status[last].BatteryLevel = 3
		return dw, ref, state, dPrev, fPrev
	}

	dw, ref, state, dPrev, fPrev := start()
	next := &dw.w[dw.cur^1]
	alg.WeightsInto(next, state)
	policySet, _ := refSets(next, &dw.w[dw.cur])
	before, atLast := 0, 0
	for j := 0; j < k; j++ {
		n := 0
		for _, a := range refAffected(dw.sp.succ, j, k, policySet) {
			if a {
				n++
			}
		}
		if j < last {
			before += n
		} else {
			atLast = n
		}
	}
	if atLast == 0 {
		t.Fatal("the last destination has no policy-affected source")
	}
	budget := func(pairs int) float64 { return (float64(pairs) + 0.5) / float64(k*k) }

	dw.affectedCrossover = budget(before)
	dist := append([]float64(nil), dw.sp.dist.cells...)
	succ := append([]topology.NodeID(nil), dw.sp.succ...)
	stats := dw.Stats()
	if dw.repair(k, state) {
		t.Fatal("repair went past the affected budget")
	}
	for x := range dist {
		if math.Float64bits(dw.sp.dist.cells[x]) != math.Float64bits(dist[x]) || dw.sp.succ[x] != succ[x] {
			t.Fatalf("bailout changed (%d, %d): dist %g succ %d, was %g and %d", x/k, x%k, dw.sp.dist.cells[x], dw.sp.succ[x], dist[x], succ[x])
		}
	}
	if got := dw.Stats(); got != stats {
		t.Fatalf("bailout changed the stats: %+v, was %+v", got, stats)
	}
	got := dw.ComputeInto(alg, state, dests, dPrev)
	assertPlansIdentical(t, got, ref.ComputeInto(alg, state, dests, fPrev))
	if s := dw.Stats(); s.Full != 2 || s.Incremental != 0 {
		t.Fatalf("stats after the bailout = %+v, want two full passes", s)
	}

	dw, ref, state, dPrev, fPrev = start()
	dw.affectedCrossover = budget(before + atLast)
	got = dw.ComputeInto(alg, state, dests, dPrev)
	assertPlansIdentical(t, got, ref.ComputeInto(alg, state, dests, fPrev))
	// The dirty vertices are the drained node and its in-neighbours, which
	// on the mesh are its neighbours.
	want := DeltaStats{Full: 1, Incremental: 1, DirtyVertices: len(g.OutLinks(topology.NodeID(last))) + 1, AffectedPairs: before + atLast, Pivots: 1}
	if s := dw.Stats(); s != want {
		t.Fatalf("stats with the budget one column larger = %+v, want %+v", s, want)
	}
}

// BenchmarkMarkAffected times the repair's marking step alone: one
// markAffected per destination, over the old successor trees of a full pass
// on EAR weights with mixed battery levels, after one battery crossing or a
// burst of sixteen spread over the mesh. It must report 0 allocs/op.
func BenchmarkMarkAffected(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		for _, crossings := range []int{1, 16} {
			b.Run(fmt.Sprintf("%dx%d/crossings-%d", size, size, crossings), func(b *testing.B) {
				mesh := topology.MustMesh(size, size, 1)
				k := mesh.Graph.NodeCount()
				state := fullState(mesh.Graph, 8)
				for n := range state.Status {
					state.Status[n].BatteryLevel = 1 + n%7
				}
				var alg Algorithm = NewEAR()
				dw := NewDeltaWorkspace()
				dw.ComputeInto(alg, state, checkerboardDests(mesh.Graph), nil)
				for c := 0; c < crossings; c++ {
					st := &state.Status[(c*k/crossings+k/2+size/2)%k]
					st.BatteryLevel--
				}
				dw.Weigh(alg, state)
				dw.grow(k)
				dw.diffDirty(&dw.w[dw.cur^1], &dw.w[dw.cur], k)
				dw.buildAdjacency(&dw.w[dw.cur], k)
				s := &dw.scratch[0]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; j++ {
						dw.markAffected(j, k, dw.col(j, k), s)
					}
				}
			})
		}
	}
}
