package routing

import (
	"math"
	"math/bits"
	"runtime"

	"repro/internal/app"
	"repro/internal/runner"
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
	// equivalence tests and the CI byte-diff smoke hold the repair to; the
	// two agree whenever path sums are exact, which covers every registered
	// scenario and every dyadic EAR Q, and can differ at other Q.
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
// full pass. An incremental repair costs roughly the diff (K² reads), plus
// the marking descent (per destination, the changed vertices plus the
// in-degree of every affected source), plus an O(K²) adjacency build on the
// first repair after a full pass and two when an edge appeared or vanished,
// plus one O(K²) pivot pass per head plus the affected re-labelling (a
// heap-ordered Dijkstra per destination), while the full pass costs K
// min-plus sweeps of the distance matrix plus an O(K²·deg) first-hop
// argmin. Phase 3 (K·Σ|S_i| distance reads) follows either path, so it
// sits on both sides of the measured ratios. Measured with
// BenchmarkDeltaCrossover on the 16x16 mesh (256 nodes, EAR, shared 2-CPU
// VM with AVX2; median over four rounds of the repair's time over the full
// pass's, which took 1.9-2.2 ms with the AVX2 min-plus kernel): at
// GOMAXPROCS 2, where both run their batches on the workspace's Team, one
// drained node repairs at 0.26x (dirty 0.02·K, affected 0.11·K²), two at
// 0.39x, eight at 0.88x, sixteen at 1.33x (dirty 0.21·K, affected
// 0.66·K²), thirty-two at 2.2x and fifty-one at 2.3x (dirty 0.59·K); at
// GOMAXPROCS 1 at 0.36x, 0.54x, 1.5x, 2.5x, 4.1x and 4.3x. So at this size
// the repair breaks even between eight and sixteen drained nodes on two
// CPUs and between two and eight on one. The K² successor walk that marked
// before the descent read 0.38x, 0.47x, 0.93x, 1.4x and 2.4x (one, two,
// eight, sixteen and fifty-one drained nodes, GOMAXPROCS 2) on the same
// host. Against the scalar min-plus loop, which a host without AVX2 still
// runs (11-16 ms), break-even sat at about thirty-two drained nodes (dirty
// 0.39·K, affected 0.88·K²), and against the older full pass that relaxed
// successors in the same loop (18-28 ms) at dirty ≈ 0.74·K. The defaults
// were set against those passes. Moving them would move the
// full/incremental split that sim.Result reports, so they stay; they are
// policy, not correctness — any threshold yields byte-identical tables.
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
// On a graph of at least parallelMinNodes vertices the workspace splits the
// repair's marking, its re-labelling, and its pivot passes over the non-head
// rows fused with phase 3, into cells of eight destinations or eight rows,
// and runs each of the three as one batch on a runner.Team it owns: the
// caller plus whichever runner helpers are idle. A marking or re-labelling
// cell writes only its own destinations' columns and its worker slot's
// scratch. A row cell writes only its own rows and those nodes' routes,
// and reads the head rows, which the caller finished before the batch. So
// no cell reads what another cell of its batch writes, and every output is
// the same whichever participant ran which cell. Below the switch the same
// cells run in order on the caller. The weight diff, the adjacency build,
// the pivot passes over the head rows, the full pass and phase 3's set-up
// stay on the caller.
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
//     touches the pivot set. Those sources are the subtrees of the set's
//     vertices in j's old successor tree, so a descent from the changed
//     vertices over the old edges' in-lists finds them (Ramalingam and
//     Reps, J. Algorithms 1996), at a cost that grows with the affected
//     pairs, not with K. The summed policy counts decide whether the
//     repair goes on; the pivot bits are kept as one K-bit column per
//     destination.
//  2. Once every destination is marked within the budget, re-label the
//     pivot-affected pairs of each destination with a Dijkstra pass whose
//     intermediates avoid the pivot set, seeded from still-exact clean-pair
//     distances (deterministic smallest-label/smallest-id settling order).
//  3. Run Fig 5's tie-breaking Floyd–Warshall pivot pass (pivotRow over
//     every row) once per pivot-set vertex, in ascending vertex order, over
//     the whole matrix: first over the head rows alone, keeping each
//     head's row as its pass reads it, then, row by row together with
//     phase 3, over every other row.
//
// Because the repaired matrices reach the same canonical fixpoint as the
// full pass — true shortest distances, and for every pair the minimum first
// hop among all shortest paths — the repair is byte-identical to the
// RecomputeFull pass whenever edge-weight sums carry no rounding (the
// repo's calibrations use dyadic lengths and penalties, so they are exact;
// see DESIGN.md, "Performance architecture"). The repair costs
// O(K² + |heads|·K² + Σ|affected|·K) against the full pass's O(K³).
// The marking's labels follow the stored successors whatever they are, so
// at every accepted Q, rounded sums included, the split and DeltaStats are
// those of a walk along each stored path.
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
	// count does, the per-worker scratch only when GOMAXPROCS does).
	member    []uint8         // per vertex: policyBit | pivotBit set membership
	heads     []int           // ascending pivot set
	tails     []int           // ascending policy set minus the pivot set
	cols      []uint64        // per destination: ⌈k/64⌉ words of pivot-affected sources
	counts    []int32         // per destination: policy-affected sources
	pivotRows []float64       // per head, in heads order: its distance row as its pass reads it
	scratch   []repairScratch // per Team worker slot: marking and re-labelling scratch
	adjOut    []int32         // concatenated out-neighbour lists
	adjOutOff []int32         // k+1 offsets into adjOut
	adjIn     []int32         // concatenated in-neighbour lists
	adjInOff  []int32         // k+1 offsets into adjIn
	// adjValid records that the adjacency lists hold the finite-edge
	// pattern of w[cur]. Weight changes that keep every edge finite (a
	// battery crossing) leave the pattern alone, so the lists are rebuilt
	// only after the diff sees an edge appear or vanish, or after a full
	// pass that ran without a diff.
	adjValid bool

	team     *runner.Team // runs batches at or above parallelMinNodes; made on first use
	batch    batch        // the running batch, read by every cell
	handoffs int          // helpers that joined a batch, for the tests

	stats DeltaStats
}

// parallelMinNodes is the size switch: a workspace runs its batches on its
// Team only on graphs of at least this many vertices, since below it waking
// a helper for each of a repair's three batches costs about what the helper
// saves. Measured with BenchmarkIncrementalRecompute at -cpu 1,2 with the
// switch at 0 (one battery crossing per recompute, EAR, shared 2-CPU VM):
// the time with two CPUs over the time with one, median of 11 to 13
// rounds, was 1.09 at 8x8, 1.05 at 10x10, 1.02 at 12x12 (144 nodes), 0.85
// at 14x14 (196 nodes) and 0.61 at 16x16.
const parallelMinNodes = 196

// repairScratch is one participant's marking and re-labelling scratch. Each
// Team worker slot owns one, so cells that run at the same time never share
// it.
type repairScratch struct {
	policyCol []uint64          // markAffected's policy labels: ⌈k/64⌉ words, bit i for source i
	stack     []int32           // markAffected's descent stack (every vertex is pushed at most once)
	heap      []settleEntry     // repairColumn's settle heap of unsettled sources
	pos       []int32           // per vertex: slot in the settle heap, or -1
	hop       []topology.NodeID // tentative canonical first hops
}

// grow sizes the scratch for dimension k.
func (s *repairScratch) grow(k int) {
	if cap(s.pos) >= k {
		s.policyCol = s.policyCol[:colWords(k)]
		s.pos = s.pos[:k]
		s.hop = s.hop[:k]
		return
	}
	s.policyCol = make([]uint64, colWords(k))
	s.stack = make([]int32, 0, k)
	s.heap = make([]settleEntry, 0, k)
	// Every repairColumn drains its heap, so pos is all -1 between calls.
	s.pos = make([]int32, k)
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.hop = make([]topology.NodeID, k)
}

// batchStep names the work of one batch's cells.
type batchStep uint8

const (
	stepMark    batchStep = iota // markAffected for each destination
	stepRelabel                  // repairColumn for each destination
	stepRows                     // pivotOthers (if batch.pivot), then phase 3, for each row
)

// batch is what the cells of the running batch read besides the workspace.
type batch struct {
	step  batchStep
	pivot bool         // stepRows: the repair's pivot passes over the non-head rows are pending
	out   *Tables      // stepRows: the tables being filled
	prev  *Tables      // stepRows: the previous tables
	state *SystemState // stepRows: the snapshot
}

// runBatch runs b's cell over every block of eight destinations or eight
// rows of the k-vertex phase 2: on the workspace's Team when k is at least
// parallelMinNodes, else in order on the caller. Eight distances or eight
// successors fill one 64-byte cache line, so cells write disjoint lines of
// a row.
func (dw *DeltaWorkspace) runBatch(b batch, k int) {
	dw.batch = b
	cells := (k + 7) / 8
	if k < parallelMinNodes {
		for c := 0; c < cells; c++ {
			dw.cell(0, c)
		}
	} else {
		if dw.team == nil {
			dw.team = runner.NewTeam(dw.cell)
		}
		dw.handoffs += dw.team.Run(cells)
	}
	dw.batch = batch{}
}

// cell runs the current batch's step over cell c as the given Team worker.
func (dw *DeltaWorkspace) cell(worker, c int) {
	k := dw.sp.n
	lo, hi := c*8, min(c*8+8, k)
	b := &dw.batch
	switch b.step {
	case stepMark:
		s := &dw.scratch[worker]
		for j := lo; j < hi; j++ {
			policy, _ := dw.markAffected(j, k, dw.col(j, k), s)
			dw.counts[j] = int32(policy)
		}
	case stepRelabel:
		s, w := &dw.scratch[worker], &dw.w[dw.cur^1]
		for j := lo; j < hi; j++ {
			dw.repairColumn(j, k, w, dw.col(j, k), s)
		}
	case stepRows:
		if b.pivot {
			dw.pivotOthers(lo, hi, k)
		}
		b.out.chooseRoutes(lo, hi, b.state, &dw.dests, b.prev)
	}
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

	pivot := false // the repair's passes over the non-head rows, run with phase 3
	if dw.repair(k, state) {
		dw.stats.Incremental++
		dw.spFull = false
		pivot = len(dw.heads) > 0
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
	prepareTables(out, state, &dw.sp, destinations, &dw.dests)
	dw.runBatch(batch{step: stepRows, pivot: pivot, out: out, prev: prev, state: state}, k)
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
// workspace must (or is configured to) run the full pass instead. On true,
// when dw.heads is not empty, the pivot passes over every row but the head
// rows are still to run: Recompute runs them row by row in phase 3's batch
// (pivotOthers), since a row's routes read only that row.
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
	if float64(dirty) > dw.dirtyCrossover*float64(k) {
		// The full pass follows; if an edge flipped, the lists no longer
		// match its weights.
		dw.adjValid = dw.adjValid && !flipped
		return false // dirty fraction past the crossover
	}
	if dirty == 0 {
		return true // weights unchanged: dist/succ are already the fixpoint
	}

	// The marking descends the old successor trees through the in-lists,
	// so they must hold the finite-edge pattern the old successors were
	// chosen over: w[cur]'s. One O(K²) sweep builds them, once per pattern.
	if !dw.adjValid {
		dw.buildAdjacency(&dw.w[dw.cur], k)
		dw.adjValid = true
	}

	// Mark every destination in one batch before repairing any, and judge
	// the policy volume from the summed counts: the descent costs only the
	// affected volume, so a bailout costs little before the full pass runs
	// — noise against its K³ — and leaves dist/succ untouched. The counts
	// are non-negative, so the sum passes the budget exactly when some
	// prefix of destinations would. The same descent keeps each
	// destination's pivot bits for the re-labelling, which is a second
	// batch: a re-labelling cell writes dist/succ, so it may start only
	// once the bailout is ruled out.
	dw.runBatch(batch{step: stepMark}, k)
	budget := int(dw.affectedCrossover * float64(k) * float64(k))
	total := 0
	for _, c := range dw.counts {
		total += int(c)
	}
	if total > budget {
		dw.adjValid = !flipped
		return false
	}
	dw.stats.DirtyVertices += dirty
	dw.stats.AffectedPairs += total

	// The re-labelling touches only existing edges, so the Dijkstra passes
	// run over neighbour lists instead of scanning whole matrix rows. They
	// must list the new weights' edges, so an edge that appeared or
	// vanished costs a second build; the lists then match w[cur] again once
	// Recompute makes the new weights current.
	if flipped {
		dw.buildAdjacency(newW, k)
	}

	// Re-label each destination column, then restore the fixpoint with one
	// pivot pass per head in ascending order: over the head rows here, over
	// the other rows in Recompute.
	dw.runBatch(batch{step: stepRelabel}, k)
	dw.pivotHeads(k)
	dw.stats.Pivots += len(dw.heads)
	return true
}

// pivotHeads runs every head's pivot pass, in ascending head order, over
// the head rows alone, and keeps in dw.pivotRows each head's distance row as
// its pass reads it, after the passes of the smaller heads. A pass writes
// only the row it relaxes and reads only that row and the head's, so every
// other row can then take all its passes on its own (pivotOthers), in the
// same order and against the same head rows, and ends exactly as the
// sequence of whole-matrix passes would leave it.
func (dw *DeltaWorkspace) pivotHeads(k int) {
	m := len(dw.heads)
	if cap(dw.pivotRows) < m*k {
		// The heads lie in the policy set, which a repair keeps within
		// dirtyCrossover·k vertices, so one allocation serves every repair.
		dw.pivotRows = make([]float64, max(m, int(dw.dirtyCrossover*float64(k)))*k)
	}
	dw.pivotRows = dw.pivotRows[:m*k]
	for t, n := range dw.heads {
		row := dw.pivotRows[t*k : (t+1)*k]
		copy(row, dw.sp.dist.Row(n))
		for _, h := range dw.heads {
			if h != n {
				dw.sp.pivotRow(h, n, row)
			}
		}
	}
}

// pivotOthers runs every head's pivot pass, in ascending head order, over
// the rows lo..hi−1 that are not head rows, against the head rows
// pivotHeads kept. It writes only those rows.
func (dw *DeltaWorkspace) pivotOthers(lo, hi, k int) {
	for i := lo; i < hi; i++ {
		if dw.member[i]&pivotBit != 0 {
			continue
		}
		for t, n := range dw.heads {
			dw.sp.pivotRow(i, n, dw.pivotRows[t*k:(t+1)*k])
		}
	}
}

// colWords is the length in words of one destination's pivot-bit column.
func colWords(k int) int { return (k + 63) / 64 }

// col returns destination j's pivot-bit column: bit i is set when source
// i's previous canonical path to j touches the pivot set.
func (dw *DeltaWorkspace) col(j, k int) []uint64 {
	w := colWords(k)
	return dw.cols[j*w : (j+1)*w]
}

// grow sizes the repair scratch for dimension k, with one repairScratch
// per worker slot a batch can use: the caller's alone below
// parallelMinNodes, one per GOMAXPROCS at or above it.
func (dw *DeltaWorkspace) grow(k int) {
	slots := 1
	if k >= parallelMinNodes {
		slots = runtime.GOMAXPROCS(0)
	}
	if len(dw.scratch) < slots {
		dw.scratch = append(dw.scratch, make([]repairScratch, slots-len(dw.scratch))...)
	}
	for x := range dw.scratch[:slots] {
		dw.scratch[x].grow(k)
	}
	if cap(dw.member) >= k {
		dw.member = dw.member[:k]
		dw.cols = dw.cols[:k*colWords(k)]
		dw.counts = dw.counts[:k]
		dw.adjOutOff = dw.adjOutOff[:k+1]
		dw.adjInOff = dw.adjInOff[:k+1]
		return
	}
	dw.member = make([]uint8, k)
	dw.cols = make([]uint64, k*colWords(k))
	dw.counts = make([]int32, k)
	dw.heads = make([]int, 0, k)
	dw.tails = make([]int, 0, k)
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
	// In-cursor per vertex; the caller's descent stack is free at this
	// point.
	cur := dw.scratch[0].stack[:0]
	for j := 0; j < k; j++ {
		cur = append(cur, dw.adjInOff[j])
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

// Set membership, the bits of dw.member. The pivot set is a subset of the
// policy set, so pivotBit never appears without policyBit.
const (
	pivotBit  = 1 << iota // the head of a changed edge
	policyBit             // an endpoint of a changed edge
)

// diffDirty compares the new and previous weight matrices and records in
// dw.member the policy set — both endpoints of every changed edge — and the
// pivot set — the head j of every changed edge w[i][j] — and lists the
// pivot set in ascending order in dw.heads and the policy-only vertices
// (tails of changed edges and nothing more) in dw.tails. It returns the
// policy set's size and whether any edge appeared or disappeared (a cell
// went from finite to Inf or back).
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
	dw.heads, dw.tails = dw.heads[:0], dw.tails[:0]
	for i, m := range member {
		switch m {
		case policyBit | pivotBit:
			dw.heads = append(dw.heads, i)
		case policyBit:
			dw.tails = append(dw.tails, i)
		}
		if m != 0 {
			dirty++
		}
	}
	return dirty, flipped
}

// markAffected labels, for destination j, every source whose previous
// canonical path to j touches the pivot set (col, bit i for source i) and
// every source whose path touches the policy set (s.policyCol), endpoints
// included, and returns both counts. A path touches a set exactly when its
// source lies in the subtree of a set vertex in j's old successor tree, so
// each label is a descent from the set's vertices (descend). A destination
// in a set passes that set's label to every source, unreachable ones
// included: every source of a pivot-set destination gets both labels, and
// every source of a policy-set destination the policy label. So j is no
// root of a descent, and succ(j, j) = j makes it no vertex's child: it is
// never labelled. The pivot set lies in the policy set, so the policy
// labels start from the pivot labels and the descent goes on from the
// policy-only vertices. It reads only column j of succ.
func (dw *DeltaWorkspace) markAffected(j, k int, col []uint64, s *repairScratch) (policy, pivot int) {
	policyCol := s.policyCol
	if dw.member[j]&pivotBit != 0 {
		fillAllBut(col, j, k)
		copy(policyCol, col)
		return k - 1, k - 1
	}
	clear(col)
	pivot = dw.descend(j, k, col, dw.heads, s)
	if dw.member[j]&policyBit != 0 {
		fillAllBut(policyCol, j, k)
		return k - 1, pivot
	}
	copy(policyCol, col)
	return pivot + dw.descend(j, k, policyCol, dw.tails, s), pivot
}

// descend sets in set the bit of every vertex in the subtrees of
// destination j's old successor tree rooted at roots that set does not hold
// yet, and returns how many bits it set. The children of v are the
// in-neighbours u of v with succ(u, j) = v; the in-lists hold every such
// edge, since they list the finite edges of the weights the old successors
// were chosen over. A vertex already in set has its whole
// subtree there, so the descent does not pass it. Every vertex is pushed
// at most once, so the descent ends on any successor graph, and it costs
// the roots plus the in-degree of every vertex it labels.
func (dw *DeltaWorkspace) descend(j, k int, set []uint64, roots []int, s *repairScratch) (n int) {
	succ, in, off := dw.sp.succ, dw.adjIn, dw.adjInOff
	stack := s.stack[:0]
	for _, r := range roots {
		if set[r>>6]>>(r&63)&1 != 0 {
			continue
		}
		set[r>>6] |= 1 << (r & 63)
		stack = append(stack, int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n++
			for _, u := range in[off[v]:off[v+1]] {
				if succ[int(u)*k+j] != topology.NodeID(v) || set[u>>6]>>(u&63)&1 != 0 {
					continue
				}
				set[u>>6] |= 1 << (u & 63)
				stack = append(stack, u)
			}
		}
	}
	return n
}

// fillAllBut sets in the k-bit set the bit of every vertex but j.
func fillAllBut(set []uint64, j, k int) {
	for x := range set {
		set[x] = ^uint64(0)
	}
	if r := k & 63; r != 0 {
		set[len(set)-1] = 1<<r - 1
	}
	set[j>>6] &^= 1 << (j & 63)
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
// set bits are the affected sources, and every other source is clean. It
// reads and writes dist/succ only in column j; s is its scratch.
func (dw *DeltaWorkspace) repairColumn(j, k int, w *Matrix, col []uint64, s *repairScratch) {
	pos, hop := s.pos, s.hop
	heap := s.heap[:0]
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
