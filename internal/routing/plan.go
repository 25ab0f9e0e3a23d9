package routing

import "math"

// Plan is the complete output of one controller routing computation: the
// phase-2 shortest paths and the phase-3 routing tables, tagged with the
// algorithm that produced them.
type Plan struct {
	Algorithm string
	Paths     *ShortestPaths
	Tables    *Tables
}

// Fingerprint returns a deterministic FNV-1a hash over the plan's complete
// routing state: every distance, every successor, and every phase-3 table
// entry (alive mask, module mask and routes). The tables' next hops are the
// successors hashed above, so they are covered without a hash of their own.
// Two plans fingerprint equal iff their matrices and tables are
// byte-identical, so the incremental-vs-full equivalence checks (tests, the
// scaling experiment, the CI smoke) can compare whole plans in O(K²)
// without allocating.
func (p *Plan) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	sp := p.Paths
	mix(uint64(sp.n))
	for _, d := range sp.dist.cells {
		mix(math.Float64bits(d))
	}
	for _, s := range sp.succ {
		mix(uint64(int64(s)))
	}
	ts := p.Tables
	mix(uint64(ts.nodes))
	mix(uint64(ts.modules))
	for _, b := range ts.has {
		mix(boolBit(b))
	}
	for _, b := range ts.known {
		mix(boolBit(b))
	}
	for _, r := range ts.routes {
		mix(uint64(int64(r.Dest)))
		mix(uint64(int64(r.NextHop)))
		mix(math.Float64bits(r.Distance))
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
