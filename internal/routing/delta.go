package routing

import (
	"repro/internal/app"
	"repro/internal/topology"
)

// RecomputeMode selects how a DeltaWorkspace reacts to a weight change.
type RecomputeMode int

const (
	// RecomputeIncremental (the zero value, and the default) repairs the
	// previous distance/successor matrices from the set of changed weights
	// when that set is small, falling back to the full Floyd–Warshall pass
	// automatically (see DeltaWorkspace).
	RecomputeIncremental RecomputeMode = iota
	// RecomputeFull always reruns the full O(K³) pass, byte-identical to
	// what a plain Workspace computes. It exists as a baseline for the
	// equivalence tests, the scaling experiment and the CI byte-diff smoke.
	RecomputeFull
)

// String returns the CLI spelling of the mode.
func (m RecomputeMode) String() string {
	if m == RecomputeFull {
		return "full"
	}
	return "incremental"
}

// DeltaStats counts how a DeltaWorkspace executed its recomputations. All
// counters are pure functions of the snapshot sequence, so they are
// deterministic and may appear in experiment tables.
type DeltaStats struct {
	// Full counts recomputations that ran the full Floyd–Warshall pass
	// (first computation, forced mode, liveness change, or dirty set past
	// the crossover).
	Full int
	// Incremental counts recomputations repaired from the dirty set.
	Incremental int
	// DirtyVertices is the cumulative size of the policy set (both
	// endpoints of every changed edge) across all incremental repairs.
	DirtyVertices int
	// AffectedPairs is the cumulative number of (source, destination)
	// pairs whose previous path touched the policy set, across all
	// incremental repairs; it is the volume the crossover judges.
	AffectedPairs int
	// Pivots is the cumulative number of Floyd–Warshall pivot passes the
	// incremental repairs ran: one per head of a changed edge.
	Pivots int
}

// Crossover fractions of the policy set above which the workspace takes the
// full pass. An incremental repair costs roughly (diff + marking +
// adjacency + rebuild) ≈ 4·K² plus one O(K²) pivot pass per head plus the
// affected re-labelling (a heap-ordered Dijkstra per destination), while
// the full pass costs K pivot passes. Measured with BenchmarkDeltaCrossover
// on the 16x16 mesh (256 nodes, EAR, shared 2-CPU VM; median over eight
// interleaved rounds of the repair's time over the full pass's, which took
// 18-28 ms): one drained node repairs at 0.14x (dirty 0.02·K, affected
// 0.11·K²), sixteen at 0.65x (dirty 0.21·K, affected 0.70·K²), fifty-one
// at 0.82x (dirty 0.59·K, affected 0.99·K²), and the repair breaks even
// between eighty drained nodes (0.91x, dirty 0.71·K) and ninety-six
// (1.08x, dirty 0.77·K) — dirty ≈ 0.74·K, with affected ≈ 0.99·K², where
// the affected threshold can no longer tell the cases apart. The defaults
// sit far below that break-even. Raising them would move the
// full/incremental split that sim.Result reports, so they stay; they are
// policy, not correctness — any threshold yields byte-identical tables.
const (
	defaultDirtyCrossover    = 0.20
	defaultAffectedCrossover = 0.60
)

// DeltaWorkspace is a Workspace variant whose phase 2 is a dynamic all-pairs
// shortest-path computation: it keeps the previous weight matrix, diffs the
// new weights against it, and when the change is small repairs the flat
// dist/succ arrays in place — Ramalingam–Reps-style, specialized to the
// dense representation — instead of rerunning the full O(K³)
// Floyd–Warshall pass. The diff yields two vertex sets:
//
//   - the policy set, both endpoints of every edge that changed weight,
//     appeared or disappeared. It alone decides whether to repair (the
//     crossover thresholds below) and feeds DirtyVertices/AffectedPairs, so
//     the full/incremental split does not depend on how the repair works;
//   - the pivot set, only the head j of every changed edge w[i][j]. It is a
//     vertex cover of the changed edges, so a path none of whose vertices
//     after the source is in it uses only unchanged edges. EAR weighs an
//     edge by its destination's battery, so one battery crossing puts just
//     the crossing node here, against ~5 vertices in the policy set.
//
// The repair then runs:
//
//  1. Mark, per destination j, every source i whose previous canonical path
//     to j touches the pivot set (one memoized walk of the old successor
//     tree per destination, O(K) amortized).
//  2. Re-label the affected pairs of each destination with a Dijkstra pass
//     whose intermediates avoid the pivot set, seeded from still-exact
//     clean-pair distances (deterministic smallest-label/smallest-id
//     settling order).
//  3. Run the shared Floyd–Warshall pivot pass once per pivot-set vertex,
//     in ascending vertex order, over the whole matrix.
//
// Because the repaired matrices reach the same canonical fixpoint as the
// full pass — true shortest distances, and for every pair the minimum first
// hop among all shortest paths — the repair is byte-identical to
// Workspace.ComputeInto whenever edge-weight sums carry no rounding (the
// repo's calibrations use dyadic lengths and penalties, so they are exact;
// see DESIGN.md, "Performance architecture"). The repair costs
// O(K² + |heads|·K² + Σ|affected|·K) against the full pass's O(K³).
//
// The workspace falls back to the full pass automatically when there is no
// previous computation, the node count changed, any node's liveness flag
// changed (death and revival invalidate reachability wholesale), or the
// policy set's dirty/affected volume exceeds the measured crossover
// thresholds.
//
// The ComputeInto contract — ping-ponged table buffers, Plan lifetimes, and
// zero steady-state heap allocations — is identical to Workspace; a
// DeltaWorkspace is likewise not safe for concurrent use.
type DeltaWorkspace struct {
	mode              RecomputeMode
	dirtyCrossover    float64
	affectedCrossover float64

	// Ping-ponged phase-1 weight matrices: w[cur] holds the weights of the
	// previous computation, the other buffer receives the new ones, and the
	// diff between them is the dirty set.
	w        [2]Matrix
	cur      int
	havePrev bool

	sp        ShortestPaths
	dests     destSet
	tbl       [2]Tables
	plan      Plan
	prevAlive []bool

	// Repair scratch, sized once per dimension and reused (zero-alloc for
	// a fixed topology; the adjacency arrays regrow only when the edge
	// count does).
	dirtyMark []bool            // per vertex: incident edge changed (policy set)
	dirty     []int             // ascending policy set
	headMark  []bool            // per vertex: an in-edge changed (pivot set)
	heads     []int             // ascending pivot set
	mark      []uint64          // per vertex: epoch<<1 | affected bit
	epoch     uint64            // current marking epoch
	walk      []int             // successor-tree walk stack
	aff       []int             // affected sources, then their settle heap
	pos       []int32           // per vertex: slot in the settle heap, or -1
	label     []float64         // tentative clean-restricted distances
	hop       []topology.NodeID // tentative canonical first hops
	adjOut    []int32           // concatenated out-neighbour lists
	adjOutOff []int32           // k+1 offsets into adjOut
	adjIn     []int32           // concatenated in-neighbour lists
	adjInOff  []int32           // k+1 offsets into adjIn

	stats DeltaStats
}

// NewDeltaWorkspace returns an empty delta workspace in incremental mode
// with the measured default crossover thresholds. Buffers are sized lazily
// on the first ComputeInto and reused afterwards.
func NewDeltaWorkspace() *DeltaWorkspace {
	return &DeltaWorkspace{
		dirtyCrossover:    defaultDirtyCrossover,
		affectedCrossover: defaultAffectedCrossover,
	}
}

// SetMode switches between incremental repair and the always-full baseline.
func (dw *DeltaWorkspace) SetMode(m RecomputeMode) { dw.mode = m }

// Mode returns the current recompute mode.
func (dw *DeltaWorkspace) Mode() RecomputeMode { return dw.mode }

// SetCrossover overrides the dirty-vertex and affected-pair fractions above
// which the workspace falls back to the full pass (both in (0, 1]; values
// outside the range are clamped). Intended for tests and experiments; the
// defaults are measured, see the package constants.
func (dw *DeltaWorkspace) SetCrossover(dirtyFrac, affectedFrac float64) {
	dw.dirtyCrossover = clamp01(dirtyFrac)
	dw.affectedCrossover = clamp01(affectedFrac)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Stats returns the cumulative execution counters.
func (dw *DeltaWorkspace) Stats() DeltaStats { return dw.stats }

// ComputeInto runs all three phases of the given algorithm on a system
// snapshot, reusing the workspace's buffers, with phase 2 executed
// incrementally when possible. The contract is identical to the package
// function ComputeInto on a plain Workspace: destinations lists the
// duplicates of every module, prev is the previously downloaded tables (nil
// on the first computation), and when prev came from an earlier ComputeInto
// on the same workspace the new tables are written into the other internal
// buffer so prev stays intact.
func (dw *DeltaWorkspace) ComputeInto(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	next := dw.cur ^ 1
	alg.WeightsInto(&dw.w[next], state)
	k := dw.w[next].Dim()

	if dw.repair(k, state) {
		dw.stats.Incremental++
	} else {
		dw.sp.ComputeFrom(&dw.w[next])
		dw.stats.Full++
	}
	dw.cur = next
	dw.havePrev = true
	dw.noteAlive(state, k)

	dw.dests.fill(destinations)
	out := &dw.tbl[0]
	if prev == out {
		out = &dw.tbl[1]
	}
	buildTablesInto(out, state, &dw.sp, &dw.dests, prev)
	dw.plan = Plan{Algorithm: alg.Name(), Paths: &dw.sp, Tables: out}
	return &dw.plan
}

// noteAlive records the snapshot's liveness flags for the next diff.
func (dw *DeltaWorkspace) noteAlive(state *SystemState, k int) {
	if cap(dw.prevAlive) < k {
		dw.prevAlive = make([]bool, k)
	}
	dw.prevAlive = dw.prevAlive[:k]
	for i := 0; i < k; i++ {
		dw.prevAlive[i] = state.Alive(topology.NodeID(i))
	}
}

// aliveChanged reports whether any node's liveness differs from the
// previous computation's snapshot.
func (dw *DeltaWorkspace) aliveChanged(state *SystemState, k int) bool {
	if len(dw.prevAlive) != k {
		return true
	}
	for i := 0; i < k; i++ {
		if dw.prevAlive[i] != state.Alive(topology.NodeID(i)) {
			return true
		}
	}
	return false
}

// repair attempts the incremental phase-2 update against the new weights in
// dw.w[dw.cur^1]. It returns false — leaving dist/succ untouched — when the
// workspace must (or is configured to) run the full pass instead.
func (dw *DeltaWorkspace) repair(k int, state *SystemState) bool {
	if dw.mode == RecomputeFull || !dw.havePrev || dw.sp.n != k || dw.w[dw.cur].Dim() != k {
		return false
	}
	// Node death (or revival) invalidates reachability wholesale: every
	// column through the node changes at once, and the old successor trees
	// are the wrong guide. Take the full pass.
	if dw.aliveChanged(state, k) {
		return false
	}
	dw.grow(k)
	newW := &dw.w[dw.cur^1]
	if !dw.diffDirty(newW, &dw.w[dw.cur], k) {
		return false // dirty fraction past the crossover
	}
	if len(dw.dirty) == 0 {
		return true // weights unchanged: dist/succ are already the fixpoint
	}

	// First marking pass: total affected volume, with early bailout. The
	// walk is O(K) amortized per destination, so a bailout costs at most
	// one O(K²) sweep before the full pass runs — noise against its K³.
	budget := int(dw.affectedCrossover * float64(k) * float64(k))
	total := 0
	for j := 0; j < k; j++ {
		total += dw.markAffected(j, k, dw.dirtyMark)
		if total > budget {
			return false
		}
	}
	dw.stats.DirtyVertices += len(dw.dirty)
	dw.stats.AffectedPairs += total

	// The re-labelling touches only existing edges, so one O(K²) sweep
	// builds neighbour lists and the Dijkstra passes run over them instead
	// of scanning whole matrix rows.
	dw.buildAdjacency(newW, k)

	// Second pass: re-mark against the pivot set (the memo is
	// epoch-scoped) and re-label each destination column, then restore the
	// fixpoint with one pivot pass per head in ascending order.
	for j := 0; j < k; j++ {
		if dw.markAffected(j, k, dw.headMark) > 0 {
			dw.repairColumn(j, k, newW)
		}
	}
	for _, v := range dw.heads {
		dw.sp.pivotPass(v)
	}
	dw.stats.Pivots += len(dw.heads)
	return true
}

// grow sizes the repair scratch for dimension k.
func (dw *DeltaWorkspace) grow(k int) {
	if cap(dw.mark) >= k {
		dw.mark = dw.mark[:k]
		dw.pos = dw.pos[:k]
		dw.label = dw.label[:k]
		dw.hop = dw.hop[:k]
		dw.adjOutOff = dw.adjOutOff[:k+1]
		dw.adjInOff = dw.adjInOff[:k+1]
		return
	}
	dw.mark = make([]uint64, k)
	dw.epoch = 0
	dw.walk = make([]int, 0, k)
	dw.aff = make([]int, 0, k)
	dw.dirty = make([]int, 0, k)
	dw.heads = make([]int, 0, k)
	// Every repairColumn drains its heap, so pos is all -1 between calls.
	dw.pos = make([]int32, k)
	for i := range dw.pos {
		dw.pos[i] = -1
	}
	dw.label = make([]float64, k)
	dw.hop = make([]topology.NodeID, k)
	dw.adjOutOff = make([]int32, k+1)
	dw.adjInOff = make([]int32, k+1)
}

// buildAdjacency collects the finite off-diagonal entries of w into flat
// out- and in-neighbour lists (ascending within each vertex). The edge
// arrays regrow only when the edge count exceeds their capacity, so a fixed
// topology stays allocation-free.
func (dw *DeltaWorkspace) buildAdjacency(w *Matrix, k int) {
	for j := 0; j <= k; j++ {
		dw.adjInOff[j] = 0
	}
	edges := 0
	for i := 0; i < k; i++ {
		row := w.Row(i)
		for j := 0; j < k; j++ {
			if i != j && row[j] < Inf {
				edges++
				dw.adjInOff[j+1]++
			}
		}
	}
	// adjInOff[j+1] now holds in-degree(j); turn it into prefix sums.
	for j := 0; j < k; j++ {
		dw.adjInOff[j+1] += dw.adjInOff[j]
	}
	if cap(dw.adjOut) < edges {
		dw.adjOut = make([]int32, edges)
		dw.adjIn = make([]int32, edges)
	}
	dw.adjOut = dw.adjOut[:edges]
	dw.adjIn = dw.adjIn[:edges]
	// In-cursor per vertex; dw.aff is free at this point.
	cur := dw.aff[:0]
	for j := 0; j < k; j++ {
		cur = append(cur, int(dw.adjInOff[j]))
	}
	n := 0
	for i := 0; i < k; i++ {
		row := w.Row(i)
		dw.adjOutOff[i] = int32(n)
		for j := 0; j < k; j++ {
			if i != j && row[j] < Inf {
				dw.adjOut[n] = int32(j)
				n++
				dw.adjIn[cur[j]] = int32(i)
				cur[j]++
			}
		}
	}
	dw.adjOutOff[k] = int32(n)
}

// diffDirty compares the new and previous weight matrices and collects, in
// ascending order, the policy set — both endpoints of every changed edge —
// and the pivot set — the head j of every changed edge w[i][j]. It returns
// false when the policy set's fraction exceeds the crossover.
func (dw *DeltaWorkspace) diffDirty(newW, oldW *Matrix, k int) bool {
	dw.dirtyMark = resizeBools(dw.dirtyMark, k)
	dw.headMark = resizeBools(dw.headMark, k)
	for i := 0; i < k; i++ {
		a, b := newW.Row(i), oldW.Row(i)
		for j := 0; j < k; j++ {
			if a[j] != b[j] {
				dw.dirtyMark[i] = true
				dw.headMark[j] = true
			}
		}
	}
	dw.dirty, dw.heads = dw.dirty[:0], dw.heads[:0]
	for i := 0; i < k; i++ {
		if dw.headMark[i] {
			dw.heads = append(dw.heads, i)
			dw.dirtyMark[i] = true
		}
		if dw.dirtyMark[i] {
			dw.dirty = append(dw.dirty, i)
		}
	}
	return float64(len(dw.dirty)) <= dw.dirtyCrossover*float64(k)
}

// markAffected walks the old successor trees towards destination j and
// labels every source whose previous canonical path to j touches a vertex
// of set (endpoints included): the policy set when measuring the
// affected volume, the pivot set when repairing. It returns the number of
// affected sources. The labels live in dw.mark, scoped to a fresh epoch per
// call; every vertex other than j is labelled on return.
func (dw *DeltaWorkspace) markAffected(j, k int, set []bool) int {
	dw.epoch++
	e := dw.epoch << 1
	mark := dw.mark
	if set[j] {
		// Every path into a marked destination touches it.
		for i := 0; i < k; i++ {
			mark[i] = e | 1
		}
		return k - 1
	}
	succ := dw.sp.succ
	walk := dw.walk[:0]
	for i := 0; i < k; i++ {
		if i == j || mark[i] >= e {
			continue
		}
		v := i
		var verdict uint64
		for {
			if mark[v] >= e {
				verdict = mark[v] & 1
				break
			}
			if set[v] {
				mark[v] = e | 1
				verdict = 1
				break
			}
			s := succ[v*k+j]
			// Unreachable pairs stay clean: any newly appearing path
			// uses a changed edge and so runs into its head — the
			// destination (all marked above) or an intermediate the
			// pivot passes discover.
			if s == topology.Invalid || int(s) == j {
				mark[v] = e
				verdict = 0
				break
			}
			walk = append(walk, v)
			v = int(s)
		}
		for _, u := range walk {
			mark[u] = e | verdict
		}
		walk = walk[:0]
	}
	affected := 0
	for i := 0; i < k; i++ {
		if i != j && mark[i]&1 == 1 {
			affected++
		}
	}
	return affected
}

// repairColumn re-labels the affected sources of destination j with a
// Dijkstra pass restricted to clean intermediates: a source may leave
// through the destination itself, through a clean pair (whose stored
// distance is still exact), or through another affected vertex outside the
// pivot set once that vertex settles. Heads of changed edges (the pivot
// set) may start or end a path but never extend one — the subsequent pivot
// passes own every route through them. That rule saves relaxations: letting
// them extend would add only real paths under the new weights, and the
// pivots would reach the same fixpoint. Settling order is smallest label,
// ties to the smallest vertex id, so the first hops written are the
// canonical minima. The unsettled sources sit in an indexed binary min-heap
// on that same strict (label, id) order; labels only decrease, so each pop
// is the (label, id) minimum of the unsettled set. markAffected must have
// run for j in the current epoch.
func (dw *DeltaWorkspace) repairColumn(j, k int, w *Matrix) {
	mark, pos, label, hop := dw.mark, dw.pos, dw.label, dw.hop
	heap := dw.aff[:0]
	for i := 0; i < k; i++ {
		if i != j && mark[i]&1 == 1 {
			heap = append(heap, i)
		}
	}
	dist, succ := &dw.sp.dist, dw.sp.succ
	for _, i := range heap {
		row := w.Row(i)
		best, bh := Inf, topology.Invalid
		for _, h32 := range dw.adjOut[dw.adjOutOff[i]:dw.adjOutOff[i+1]] {
			h := int(h32)
			var cand float64
			if h == j {
				cand = row[h]
			} else if mark[h]&1 == 0 {
				dhj := dist.At(h, j)
				if dhj == Inf {
					continue
				}
				cand = row[h] + dhj
			} else {
				continue
			}
			if cand < best {
				best, bh = cand, topology.NodeID(h)
			} else if cand == best && topology.NodeID(h) < bh {
				bh = topology.NodeID(h)
			}
		}
		label[i], hop[i] = best, bh
	}
	heapInit(heap, pos, label)
	for len(heap) > 0 {
		var v int
		v, heap = heapPop(heap, pos, label)
		lv := label[v]
		if lv == Inf {
			// No clean-restricted route: reset to unreachable and let
			// the pivot passes rediscover any path through the pivot set.
			dist.Set(v, j, Inf)
			succ[v*k+j] = topology.Invalid
			continue
		}
		dist.Set(v, j, lv)
		succ[v*k+j] = hop[v]
		if dw.headMark[v] {
			continue
		}
		for _, u32 := range dw.adjIn[dw.adjInOff[v]:dw.adjInOff[v+1]] {
			// Only unsettled affected sources carry labels, and exactly
			// those are in the heap.
			x := pos[u32]
			if x < 0 {
				continue
			}
			u := int(u32)
			cand := w.At(u, v) + lv
			if cand < label[u] {
				label[u], hop[u] = cand, topology.NodeID(v)
				siftUp(heap, pos, label, int(x))
			} else if cand == label[u] && topology.NodeID(v) < hop[u] {
				hop[u] = topology.NodeID(v)
			}
		}
	}
}

// heapLess is the settle order: smaller label first, ties to the smaller
// vertex id. It is strict and total, so the heap's minimum is unique.
func heapLess(label []float64, a, b int) bool {
	return label[a] < label[b] || (label[a] == label[b] && a < b)
}

// heapInit records every vertex's slot in pos and heap-orders the slice.
func heapInit(heap []int, pos []int32, label []float64) {
	for x, v := range heap {
		pos[v] = int32(x)
	}
	for x := len(heap)/2 - 1; x >= 0; x-- {
		siftDown(heap, pos, label, x)
	}
}

// heapPop removes the minimum, marks it absent in pos, and returns it with
// the shrunk heap.
func heapPop(heap []int, pos []int32, label []float64) (int, []int) {
	v := heap[0]
	pos[v] = -1
	last := len(heap) - 1
	heap[0] = heap[last]
	heap = heap[:last]
	if last > 0 {
		siftDown(heap, pos, label, 0)
	}
	return v, heap
}

// siftUp restores the heap order after the label of heap[x] decreased.
func siftUp(heap []int, pos []int32, label []float64, x int) {
	v := heap[x]
	for x > 0 {
		p := (x - 1) / 2
		u := heap[p]
		if !heapLess(label, v, u) {
			break
		}
		heap[x], pos[u] = u, int32(x)
		x = p
	}
	heap[x], pos[v] = v, int32(x)
}

// siftDown restores the heap order below slot x.
func siftDown(heap []int, pos []int32, label []float64, x int) {
	v := heap[x]
	for {
		c := 2*x + 1
		if c >= len(heap) {
			break
		}
		if r := c + 1; r < len(heap) && heapLess(label, heap[r], heap[c]) {
			c = r
		}
		u := heap[c]
		if !heapLess(label, u, v) {
			break
		}
		heap[x], pos[u] = u, int32(x)
		x = c
	}
	heap[x], pos[v] = v, int32(x)
}
