// Package optimize searches the space of module→node placements for a
// scenario. The paper fixes the mapping up front (the Sec 5.2 checkerboard)
// and uses Theorem 1 only as an analytical yardstick; this package closes the
// loop by treating the placement as a decision variable: one multi-restart
// search loop, greedy hill-climb or simulated annealing by its acceptance
// rule, walks the discrete space of dense module→node assignments, scoring each
// candidate with a pluggable Objective (the fast Theorem-1 surrogate, a
// single et_sim run, or a replicated campaign mean for stochastic scenarios),
// and the winning placement is exported as a mapping.Explicit assignment that
// any scenario.Spec can replay.
//
// The design invariants mirror the rest of the stack:
//
//   - Determinism. Move k of restart r is a pure function of the problem's
//     base seed: restarts derive index-addressed child streams from
//     campaign.Stream and every move draws its words by index, never from
//     shared generator state. Restarts run as cells of the caller's
//     runner.Pool with input-order folding, so the chosen placement is
//     byte-identical at every worker count.
//   - Monotonicity. Every restart's best candidate scores at least as well
//     as its start (hill-climb only accepts improvements; annealing tracks
//     the incumbent best separately from the random walk), so searching can
//     never return something worse than the placement it started from.
//   - Zero waste on revisits. Each restart memoizes evaluations in a cache
//     keyed by the canonical candidate encoding, so a placement the walk
//     revisits costs zero simulations. Caches are per-restart, which keeps
//     hit/miss counts schedule-independent (a cache shared across
//     concurrently running restarts would report different counts depending
//     on which restart got to a key first).
package optimize

import (
	"repro/internal/app"
	"repro/internal/campaign"
	"repro/internal/mapping"
	"repro/internal/topology"
)

// moveWords is the number of index-addressed seed-stream words one proposed
// move consumes: move k of a restart reads words [k*moveWords, (k+1)*moveWords)
// of the restart's move stream, so any move can be recomputed in isolation.
const moveWords = 4

// maxBlock is the largest block-shuffle span. It bounds the fixed scratch
// buffer that keeps block moves allocation-free.
const maxBlock = 6

// Candidate is one dense module→node placement: Assign[n] is the module of
// node n (mapping.Unassigned for relay-only nodes). Candidates additionally
// maintain per-module duplicate counts incrementally so feasibility (every
// module placed at least once) is an O(1) check after every move.
type Candidate struct {
	assign []app.ModuleID
	counts []int // counts[m] = duplicates of module m; index 0 counts unassigned nodes
	p      int   // number of application modules
}

// newCandidate returns an all-unassigned candidate for k nodes and p modules.
func newCandidate(k, p int) *Candidate {
	c := &Candidate{
		assign: make([]app.ModuleID, k),
		counts: make([]int, p+1),
		p:      p,
	}
	c.counts[0] = k
	return c
}

// FromMapping encodes a materialised Mapping over k nodes as a candidate.
func FromMapping(m *mapping.Mapping, k, p int) *Candidate {
	c := newCandidate(k, p)
	for n := 0; n < k; n++ {
		c.set(n, m.ModuleAt(topology.NodeID(n)))
	}
	return c
}

// set assigns node n to module mod, keeping the counts consistent.
func (c *Candidate) set(n int, mod app.ModuleID) {
	c.counts[c.assign[n]]--
	c.assign[n] = mod
	c.counts[mod]++
}

// Clone returns an independent deep copy.
func (c *Candidate) Clone() *Candidate {
	o := &Candidate{
		assign: make([]app.ModuleID, len(c.assign)),
		counts: make([]int, len(c.counts)),
		p:      c.p,
	}
	copy(o.assign, c.assign)
	copy(o.counts, c.counts)
	return o
}

// CopyFrom overwrites c with o. The candidates must describe the same
// problem size; CopyFrom never allocates.
func (c *Candidate) CopyFrom(o *Candidate) {
	copy(c.assign, o.assign)
	copy(c.counts, o.counts)
	c.p = o.p
}

// ModuleAt returns the module placed on node n.
func (c *Candidate) ModuleAt(n int) app.ModuleID { return c.assign[n] }

// String renders the placement in the canonical comma-separated form shared
// with mapping.Explicit and scenario.Spec.Assignment.
func (c *Candidate) String() string {
	return mapping.Explicit{Assign: c.assign}.String()
}

// AppendKey appends the canonical byte encoding of the placement to dst and
// returns the extended slice — the evaluation-cache key. One byte per node
// (NewProblem rejects applications with more than 255 modules).
func (c *Candidate) AppendKey(dst []byte) []byte {
	for _, m := range c.assign {
		dst = append(dst, byte(m))
	}
	return dst
}

// applyMove mutates the candidate with the move encoded by four seed-stream
// words and reports whether the move kept the candidate feasible. The move
// kinds and their weights:
//
//   - swap (5/10): two nodes exchange modules. Duplicate counts are
//     unchanged, so a swap is always feasible.
//   - relocate (3/10): one node is reassigned to a drawn module. Rejected
//     (returning false, candidate unchanged) when it would extinguish the
//     node's current module.
//   - block-shuffle (2/10): a block of 2..maxBlock consecutive node IDs
//     (wrapping around the end) is rotated by a drawn offset. A rotation
//     permutes the block, so counts are unchanged and the move is always
//     feasible.
//
// applyMove never allocates.
func (c *Candidate) applyMove(w0, w1, w2, w3 uint64) bool {
	k := uint64(len(c.assign))
	switch kind := w0 % 10; {
	case kind < 5: // swap
		i, j := w1%k, w2%k
		c.assign[i], c.assign[j] = c.assign[j], c.assign[i]
		return true
	case kind < 8: // relocate
		i := w1 % k
		mod := app.ModuleID(1 + w2%uint64(c.p))
		old := c.assign[i]
		if old == mod {
			return true
		}
		if old != mapping.Unassigned && c.counts[old] <= 1 {
			return false
		}
		c.set(int(i), mod)
		return true
	default: // block-shuffle (rotation)
		maxL := uint64(maxBlock)
		if maxL > k {
			maxL = k
		}
		if maxL < 2 {
			return true
		}
		start := w1 % k
		length := 2 + w2%(maxL-1)
		rot := 1 + w3%(length-1)
		var buf [maxBlock]app.ModuleID
		for o := uint64(0); o < length; o++ {
			buf[o] = c.assign[(start+o)%k]
		}
		for o := uint64(0); o < length; o++ {
			c.assign[(start+(o+rot)%length)%k] = buf[o]
		}
		return true
	}
}

// randomize overwrites the candidate with a random feasible placement drawn
// from the stream: a Fisher–Yates permutation guarantees one duplicate of
// every module on distinct nodes, and the remaining nodes draw uniform
// modules — the same construction as mapping.Random, but index-addressed.
func (c *Candidate) randomize(stream campaign.Stream) {
	k := len(c.assign)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for i := k - 1; i > 0; i-- {
		j := int(stream.Word(uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for n := 0; n < k; n++ {
		c.set(n, mapping.Unassigned)
	}
	for m := 0; m < c.p && m < k; m++ {
		c.set(perm[m], app.ModuleID(m+1))
	}
	for idx := c.p; idx < k; idx++ {
		mod := app.ModuleID(1 + stream.Word(uint64(k+idx))%uint64(c.p))
		c.set(perm[idx], mod)
	}
}
