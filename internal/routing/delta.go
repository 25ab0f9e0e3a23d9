package routing

import (
	"math"
	"math/bits"

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
	// RecomputeFull always takes the full O(K³) pass: phase 1, then
	// ShortestPaths.ComputeFrom (or a copy of a donor's bit-identical full
	// pass, see Recompute), then phase 3. It is the reference the
	// equivalence tests, the scaling experiment and the CI byte-diff smoke
	// hold the repair to.
	RecomputeFull
)

// String returns the CLI spelling of the mode.
func (m RecomputeMode) String() string {
	if m == RecomputeFull {
		return "full"
	}
	return "incremental"
}

// DeltaStats counts how a DeltaWorkspace executed its recomputations. Full
// and Incremental count policy decisions and, like the volume counters, are
// pure functions of the snapshot sequence, so they are deterministic and may
// appear in experiment tables. Shared also depends on which donors the
// caller offered, and so, where workspaces are recomputed concurrently and
// each participant offers only its own earlier workspaces, on scheduling;
// it is host-side telemetry only, read by no output.
type DeltaStats struct {
	// Full counts recomputations the policy sent to the full pass (first
	// computation, forced mode, liveness change, or dirty set past the
	// crossover), whether it ran Floyd–Warshall or copied a donor's result.
	Full int
	// Shared counts the Full decisions whose phase-2 result was copied
	// from a donor's bit-identical full pass instead of recomputed; it is a
	// subset of Full. Which decisions those are may differ from run to run
	// of the same input when the caller recomputes concurrently.
	Shared int
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
// full pass. An incremental repair costs roughly (diff + one marking walk)
// ≈ 2·K², plus an O(K²) adjacency build when an edge appeared or vanished,
// plus one O(K²) pivot pass per head plus the affected re-labelling (a
// heap-ordered Dijkstra per destination), while the full pass costs K
// min-plus sweeps of the distance matrix plus an O(K²·deg) first-hop
// argmin. Phase 3 (K·Σ|S_i| distance reads) follows either path, so it
// sits on both sides of the measured ratios. Measured with
// BenchmarkDeltaCrossover on the 16x16 mesh (256 nodes, EAR, shared 2-CPU
// VM with AVX2; median over four rounds of the repair's time over the full
// pass's, which took 3.5-3.8 ms with the AVX2 min-plus kernel): one drained
// node repairs at 0.64x (dirty 0.02·K, affected 0.11·K²), two at 0.75x,
// eight at 1.45x, sixteen at 2.6x (dirty 0.21·K, affected 0.66·K²) and
// fifty-one at 4.1x (dirty 0.59·K), so at this size the repair breaks even
// between two and eight drained nodes. Against the scalar min-plus loop,
// which a host without AVX2 still runs (11-16 ms), break-even sat at about
// thirty-two drained nodes (dirty 0.39·K, affected 0.88·K²), and against
// the older full pass that relaxed successors in the same loop (18-28 ms)
// at dirty ≈ 0.74·K. The defaults were set against those passes. Moving
// them would move the full/incremental split that sim.Result reports, so
// they stay; they are policy, not correctness — any threshold yields
// byte-identical tables.
const (
	defaultDirtyCrossover    = 0.20
	defaultAffectedCrossover = 0.60
)

// DeltaWorkspace owns every buffer the three routing phases need — the
// phase-1 weight matrices, the phase-2 distance/successor storage, the dense
// duplicate lists and two phase-3 table buffers — so that repeated
// ComputeInto calls reuse them and steady-state recomputation performs no
// heap allocations.
//
// The two table buffers are ping-ponged: each ComputeInto writes into the
// buffer that is not the caller's prev, so the previous generation's routes
// stay intact while the next generation reads them for deadlock avoidance.
// Lifetimes:
//
//   - next hops always read the workspace's current phase 2: a returned
//     Plan, its Paths and its Tables' NextHop answers are recomputed in
//     place by the NEXT ComputeInto on the same workspace;
//   - prev is read only for its routes, which the ping-pong keeps intact
//     for exactly one more call, provided the Tables are passed back as
//     prev (a Tables not handed back as prev may be overwritten at once);
//   - so every consumer must hold the latest generation. The control plane
//     does: a region replaces its tables in the same call that rewrites its
//     workspace, and a dead or fault-down region rewrites neither.
//
// A DeltaWorkspace is not safe for concurrent use; give each goroutine its
// own.
//
// Its phase 2 is a dynamic all-pairs shortest-path computation: it keeps
// the previous weight matrix, diffs the new weights against it, and when
// the change is small repairs the flat dist/succ arrays in place —
// Ramalingam–Reps-style, specialized to the dense representation — instead
// of rerunning the full O(K³) Floyd–Warshall pass. The diff yields two
// vertex sets:
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
//  1. Mark, per destination j, every source i with two bits: whether its
//     previous canonical path to j touches the policy set, and whether it
//     touches the pivot set (one memoized walk of the old successor tree
//     per destination labels both, O(K) amortized). The policy count
//     decides, destination by destination, whether the repair goes on; the
//     pivot bits are kept as one K-bit column per destination.
//  2. Once every destination is marked within the budget, re-label the
//     pivot-affected pairs of each destination with a Dijkstra pass whose
//     intermediates avoid the pivot set, seeded from still-exact clean-pair
//     distances (deterministic smallest-label/smallest-id settling order).
//  3. Run Fig 5's tie-breaking Floyd–Warshall pivot pass (pivotPass) once
//     per pivot-set vertex, in ascending vertex order, over the whole
//     matrix.
//
// Because the repaired matrices reach the same canonical fixpoint as the
// full pass — true shortest distances, and for every pair the minimum first
// hop among all shortest paths — the repair is byte-identical to the
// RecomputeFull pass whenever edge-weight sums carry no rounding (the
// repo's calibrations use dyadic lengths and penalties, so they are exact;
// see DESIGN.md, "Performance architecture"). The repair costs
// O(K² + |heads|·K² + Σ|affected|·K) against the full pass's O(K³).
//
// The workspace falls back to the full pass automatically when there is no
// previous computation, the node count changed, any node's liveness flag
// changed (death and revival invalidate reachability wholesale), or the
// policy set's dirty/affected volume exceeds the measured crossover
// thresholds.
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
	weighed  bool   // w[cur^1] holds phase-1 weights no Recompute has used
	alg      string // name of the algorithm that built them

	sp        ShortestPaths
	spFull    bool // sp holds a full pass over w[cur] (a valid donor)
	dests     destSet
	tbl       [2]Tables
	plan      Plan
	prevAlive []bool

	// Repair scratch, sized once per dimension and reused (zero-alloc for
	// a fixed topology; the adjacency arrays regrow only when the edge
	// count does).
	member    []uint8           // per vertex: policyBit | pivotBit set membership
	heads     []int             // ascending pivot set
	mark      []uint64          // per vertex: epoch<<2 | policyBit | pivotBit
	epoch     uint64            // current marking epoch
	cols      []uint64          // per destination: ⌈k/64⌉ words of pivot-affected sources
	walk      []int             // successor-tree walk stack
	heap      []settleEntry     // repairColumn's settle heap of unsettled sources
	pos       []int32           // per vertex: slot in the settle heap, or -1
	hop       []topology.NodeID // tentative canonical first hops
	adjOut    []int32           // concatenated out-neighbour lists
	adjOutOff []int32           // k+1 offsets into adjOut
	adjIn     []int32           // concatenated in-neighbour lists
	adjInOff  []int32           // k+1 offsets into adjIn
	// adjValid records that the adjacency lists hold the finite-edge
	// pattern of w[cur]. Weight changes that keep every edge finite (a
	// battery crossing) leave the pattern alone, so the lists are rebuilt
	// only after the diff sees an edge appear or vanish, or after a full
	// pass that ran without a diff.
	adjValid bool

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

// Stats returns the cumulative execution counters.
func (dw *DeltaWorkspace) Stats() DeltaStats { return dw.stats }

// ComputeInto runs all three phases of the given algorithm on a system
// snapshot, reusing the workspace's buffers, with phase 2 executed
// incrementally when possible: Weigh, then Recompute without a donor.
// destinations lists the duplicates S_i of every module; prev is the
// previously downloaded tables (nil on the first computation), whose routes
// are consulted for deadlock avoidance. When prev came from an earlier
// ComputeInto on the same workspace the new tables are written into the
// other internal buffer, so prev's routes stay intact.
func (dw *DeltaWorkspace) ComputeInto(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	dw.Weigh(alg, state)
	return dw.Recompute(state, destinations, prev, nil)
}

// Weigh runs phase 1: alg's edge weights for state, into the workspace's
// next weight buffer, for the Recompute that must follow. It is the only
// step that calls into alg, so a caller that owns several workspaces can
// weigh them one after another on one goroutine (an Algorithm need not be
// safe for concurrent use) and recompute them concurrently.
func (dw *DeltaWorkspace) Weigh(alg Algorithm, state *SystemState) {
	alg.WeightsInto(&dw.w[dw.cur^1], state)
	dw.alg = alg.Name()
	dw.weighed = true
}

// Recompute runs phases 2 and 3 over the weights of the preceding Weigh,
// for the same state; see ComputeInto for destinations and prev. The
// recompute policy decides between the repair and the full pass from the
// weights alone. Only when it decides on the full pass, and donor's last
// phase 2 was a full pass over weights bit-identical to the new ones, does
// it copy donor's distance/successor matrices (O(K²)) instead of rerunning
// Floyd–Warshall. The full pass is a function of the weights alone, so the
// copy is exactly what the pass would compute. Phase 3 always runs here,
// against this workspace's own prev. donor may be nil; it is only read, so
// it must not be recomputing at the same time.
func (dw *DeltaWorkspace) Recompute(state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables, donor *DeltaWorkspace) *Plan {
	if !dw.weighed {
		panic("routing: DeltaWorkspace.Recompute without a preceding Weigh")
	}
	dw.weighed = false
	next := dw.cur ^ 1
	k := dw.w[next].Dim()

	if dw.repair(k, state) {
		dw.stats.Incremental++
		dw.spFull = false
	} else {
		if donor.fullPassOver(&dw.w[next]) {
			dw.sp.copyFrom(&donor.sp)
			dw.stats.Shared++
		} else {
			dw.sp.ComputeFrom(&dw.w[next])
		}
		dw.stats.Full++
		dw.spFull = true
	}
	dw.cur = next
	dw.havePrev = true
	dw.noteAlive(state, k)

	out := &dw.tbl[0]
	if prev == out {
		out = &dw.tbl[1]
	}
	buildTablesInto(out, state, &dw.sp, destinations, &dw.dests, prev)
	dw.plan = Plan{Algorithm: dw.alg, Paths: &dw.sp, Tables: out}
	return &dw.plan
}

// fullPassOver reports whether the workspace's current phase-2 result is a
// full pass over weights bit-identical to w. A nil workspace never is.
func (dw *DeltaWorkspace) fullPassOver(w *Matrix) bool {
	if dw == nil || !dw.spFull {
		return false
	}
	own := &dw.w[dw.cur]
	if own.Dim() != w.Dim() {
		return false
	}
	for i, v := range own.cells {
		if math.Float64bits(v) != math.Float64bits(w.cells[i]) {
			return false
		}
	}
	return true
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
	// Node death (or revival) invalidates reachability wholesale: every
	// column through the node changes at once, and the old successor trees
	// are the wrong guide. Take the full pass. None of these full passes
	// diffs the weights, so the edge pattern is unknown afterwards.
	if dw.mode == RecomputeFull || !dw.havePrev || dw.sp.n != k || dw.w[dw.cur].Dim() != k ||
		dw.aliveChanged(state, k) {
		dw.adjValid = false
		return false
	}
	dw.grow(k)
	newW := &dw.w[dw.cur^1]
	dirty, flipped := dw.diffDirty(newW, &dw.w[dw.cur], k)
	if flipped {
		// Whether the repair or the full pass follows, the lists no longer
		// match the new weights.
		dw.adjValid = false
	}
	if float64(dirty) > dw.dirtyCrossover*float64(k) {
		return false // dirty fraction past the crossover
	}
	if dirty == 0 {
		return true // weights unchanged: dist/succ are already the fixpoint
	}

	// Mark every destination before repairing any: the policy volume
	// decides with an early bailout, and the walk is O(K) amortized per
	// destination, so a bailout costs at most one O(K²) sweep before the
	// full pass runs — noise against its K³ — and leaves dist/succ
	// untouched. The same walk keeps each destination's pivot bits for the
	// re-labelling.
	budget := int(dw.affectedCrossover * float64(k) * float64(k))
	total := 0
	for j := 0; j < k; j++ {
		policy, _ := dw.markAffected(j, k, dw.col(j, k))
		total += policy
		if total > budget {
			return false
		}
	}
	dw.stats.DirtyVertices += dirty
	dw.stats.AffectedPairs += total

	// The re-labelling touches only existing edges, so the Dijkstra passes
	// run over neighbour lists instead of scanning whole matrix rows. One
	// O(K²) sweep builds them, once per finite-edge pattern.
	if !dw.adjValid {
		dw.buildAdjacency(newW, k)
		dw.adjValid = true
	}

	// Re-label each destination column, then restore the fixpoint with one
	// pivot pass per head in ascending order.
	for j := 0; j < k; j++ {
		dw.repairColumn(j, k, newW, dw.col(j, k))
	}
	for _, v := range dw.heads {
		dw.sp.pivotPass(v)
	}
	dw.stats.Pivots += len(dw.heads)
	return true
}

// colWords is the length in words of one destination's pivot-bit column.
func colWords(k int) int { return (k + 63) / 64 }

// col returns destination j's pivot-bit column: bit i is set when source
// i's previous canonical path to j touches the pivot set.
func (dw *DeltaWorkspace) col(j, k int) []uint64 {
	w := colWords(k)
	return dw.cols[j*w : (j+1)*w]
}

// grow sizes the repair scratch for dimension k.
func (dw *DeltaWorkspace) grow(k int) {
	if cap(dw.mark) >= k {
		dw.member = dw.member[:k]
		dw.mark = dw.mark[:k]
		dw.cols = dw.cols[:k*colWords(k)]
		dw.pos = dw.pos[:k]
		dw.hop = dw.hop[:k]
		dw.adjOutOff = dw.adjOutOff[:k+1]
		dw.adjInOff = dw.adjInOff[:k+1]
		return
	}
	dw.member = make([]uint8, k)
	dw.mark = make([]uint64, k)
	dw.epoch = 0
	dw.cols = make([]uint64, k*colWords(k))
	dw.walk = make([]int, 0, k)
	dw.heap = make([]settleEntry, 0, k)
	dw.heads = make([]int, 0, k)
	// Every repairColumn drains its heap, so pos is all -1 between calls.
	dw.pos = make([]int32, k)
	for i := range dw.pos {
		dw.pos[i] = -1
	}
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
	// In-cursor per vertex; dw.walk is free at this point.
	cur := dw.walk[:0]
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

// Set-membership and marking labels: the low bits of dw.member (the vertex
// is in the set) and of dw.mark (the vertex's previous canonical path to the
// destination touches the set). The pivot set is a subset of the policy set,
// so pivotBit never appears without policyBit in dw.member. pivotBit is bit
// 0 and policyBit bit 1, which markAffected relies on when it shifts the
// labels into column words and counts.
const (
	pivotBit  = 1 << iota // the head of a changed edge
	policyBit             // an endpoint of a changed edge
)

// diffDirty compares the new and previous weight matrices and records in
// dw.member the policy set — both endpoints of every changed edge — and the
// pivot set — the head j of every changed edge w[i][j] — and lists the
// pivot set in ascending order in dw.heads. It returns the policy set's
// size and whether any edge appeared or disappeared (a cell went from
// finite to Inf or back).
func (dw *DeltaWorkspace) diffDirty(newW, oldW *Matrix, k int) (dirty int, flipped bool) {
	member := dw.member
	clear(member)
	for i := 0; i < k; i++ {
		a, b := newW.Row(i), oldW.Row(i)
		for j := 0; j < k; j++ {
			if a[j] != b[j] {
				member[i] |= policyBit
				member[j] |= policyBit | pivotBit
				flipped = flipped || (a[j] < Inf) != (b[j] < Inf)
			}
		}
	}
	dw.heads = dw.heads[:0]
	for i, m := range member {
		if m&pivotBit != 0 {
			dw.heads = append(dw.heads, i)
		}
		if m != 0 {
			dirty++
		}
	}
	return dirty, flipped
}

// markAffected walks the old successor trees towards destination j once and
// labels every source with policyBit when its previous canonical path to j
// touches the policy set and with pivotBit when it touches the pivot set
// (endpoints included). A vertex's label is its own membership OR'd with
// its successor's, so the walk stops only at a memo hit, a pivot-set vertex
// (which carries both bits) or the end of the path; it passes policy-only
// vertices, since a pivot bit may lie further down. A destination in a set
// passes that set's bit to every source, unreachable ones included: all of
// a pivot-set destination's sources get both bits, and all of a policy-set
// destination's the policy bit. The labels live in dw.mark, scoped to a
// fresh epoch per call; every vertex is labelled on return, j as clean.
// col receives the pivot bits (bit i for source i), and the two counts are
// returned.
func (dw *DeltaWorkspace) markAffected(j, k int, col []uint64) (policy, pivot int) {
	dw.epoch++
	e := dw.epoch << 2
	mark, member := dw.mark, dw.member
	// j is not its own source, so it is labelled clean and never walked.
	mark[j] = e
	// Every path into a destination in a set touches that set, and so do
	// the paths that do not exist: every source inherits j's membership.
	base := e | uint64(member[j])
	succ := dw.sp.succ
	walk := dw.walk[:0]
	for i := 0; i < k; i++ {
		if mark[i] >= e {
			continue
		}
		v := i
		var lab uint64
		for {
			if mark[v] >= e {
				lab = mark[v] & (policyBit | pivotBit)
				break
			}
			lab = uint64(member[v])
			if lab&pivotBit != 0 {
				mark[v] = base | lab
				break
			}
			s := succ[v*k+j]
			// Unreachable pairs stay pivot-clean: any newly appearing
			// path uses a changed edge and so runs into its head — the
			// destination (which labels every source) or an intermediate
			// the pivot passes discover.
			if s == topology.Invalid || int(s) == j {
				mark[v] = base | lab
				break
			}
			walk = append(walk, v)
			v = int(s)
		}
		for x := len(walk) - 1; x >= 0; x-- {
			u := walk[x]
			lab |= uint64(member[u])
			mark[u] = base | lab
		}
		walk = walk[:0]
	}
	for x := range col {
		lo := x << 6
		var word uint64
		for b, m := range mark[lo:min(lo+64, k)] {
			word |= (m & pivotBit) << b
			policy += int(m >> 1 & 1)
		}
		col[x] = word
		pivot += bits.OnesCount64(word)
	}
	return policy, pivot
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
// on that same strict (label, id) order, each entry carrying its label;
// labels only decrease, so each pop is the (label, id) minimum of the
// unsettled set. col is j's pivot-bit column as markAffected left it: its
// set bits are the affected sources, and every other source is clean.
func (dw *DeltaWorkspace) repairColumn(j, k int, w *Matrix, col []uint64) {
	pos, hop := dw.pos, dw.hop
	heap := dw.heap[:0]
	for x, word := range col {
		for ; word != 0; word &= word - 1 {
			heap = append(heap, settleEntry{v: int32(x<<6 | bits.TrailingZeros64(word))})
		}
	}
	if len(heap) == 0 {
		return
	}
	dist, succ := &dw.sp.dist, dw.sp.succ
	for x := range heap {
		i := int(heap[x].v)
		row := w.Row(i)
		best, bh := Inf, topology.Invalid
		for _, h32 := range dw.adjOut[dw.adjOutOff[i]:dw.adjOutOff[i+1]] {
			h := int(h32)
			var cand float64
			if h == j {
				cand = row[h]
			} else if col[h>>6]>>(h&63)&1 == 0 {
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
		heap[x].label, hop[i] = best, bh
	}
	heapInit(heap, pos)
	for len(heap) > 0 {
		var top settleEntry
		top, heap = heapPop(heap, pos)
		v, lv := int(top.v), top.label
		if lv == Inf {
			// No clean-restricted route: reset to unreachable and let
			// the pivot passes rediscover any path through the pivot set.
			dist.Set(v, j, Inf)
			succ[v*k+j] = topology.Invalid
			continue
		}
		dist.Set(v, j, lv)
		succ[v*k+j] = hop[v]
		if dw.member[v]&pivotBit != 0 {
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
			if lu := heap[x].label; cand < lu {
				heap[x].label, hop[u] = cand, topology.NodeID(v)
				siftUp(heap, pos, int(x))
			} else if cand == lu && topology.NodeID(v) < hop[u] {
				hop[u] = topology.NodeID(v)
			}
		}
	}
}

// settleEntry is one unsettled source in repairColumn's heap: its tentative
// clean-restricted distance and its vertex id side by side, so that the
// sift loops compare entries in place instead of indexing a label array.
type settleEntry struct {
	label float64
	v     int32
}

// less is the settle order: smaller label first, ties to the smaller vertex
// id. It is strict and total, so the heap's minimum is unique.
func (a settleEntry) less(b settleEntry) bool {
	return a.label < b.label || (a.label == b.label && a.v < b.v)
}

// heapInit records every entry's slot in pos and heap-orders the slice.
func heapInit(heap []settleEntry, pos []int32) {
	for x, e := range heap {
		pos[e.v] = int32(x)
	}
	for x := len(heap)/2 - 1; x >= 0; x-- {
		siftDown(heap, pos, x)
	}
}

// heapPop removes the minimum, marks its vertex absent in pos, and returns
// it with the shrunk heap.
func heapPop(heap []settleEntry, pos []int32) (settleEntry, []settleEntry) {
	top := heap[0]
	pos[top.v] = -1
	last := len(heap) - 1
	heap[0] = heap[last]
	heap = heap[:last]
	if last > 0 {
		siftDown(heap, pos, 0)
	}
	return top, heap
}

// siftUp restores the heap order after the label of heap[x] decreased.
func siftUp(heap []settleEntry, pos []int32, x int) {
	e := heap[x]
	for x > 0 {
		p := (x - 1) / 2
		u := heap[p]
		if !e.less(u) {
			break
		}
		heap[x], pos[u.v] = u, int32(x)
		x = p
	}
	heap[x], pos[e.v] = e, int32(x)
}

// siftDown restores the heap order below slot x.
func siftDown(heap []settleEntry, pos []int32, x int) {
	e := heap[x]
	for {
		c := 2*x + 1
		if c >= len(heap) {
			break
		}
		if r := c + 1; r < len(heap) && heap[r].less(heap[c]) {
			c = r
		}
		u := heap[c]
		if !u.less(e) {
			break
		}
		heap[x], pos[u.v] = u, int32(x)
		x = c
	}
	heap[x], pos[e.v] = e, int32(x)
}
