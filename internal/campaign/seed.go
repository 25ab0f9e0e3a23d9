package campaign

// The seed stream: a SplitMix64-style generator addressed by output index
// instead of advanced by successive calls. Replicate i of a campaign needs
// its stochastic knobs (random-mapping draw, link-fault pattern) seeded
// independently of every other replicate and independently of which worker
// happens to simulate it, so the stream is a pure function of
// (base seed, replicate index, channel): no state advances, no ordering
// requirement, and any replicate's seeds can be recomputed in isolation
// (which is how a single interesting draw is re-run under `etsim -seed`).

import "repro/internal/splitmix"

// Stream derives per-replicate seeds from one base seed. The zero value is a
// valid stream (base seed 0).
type Stream struct {
	// Base is the campaign-level seed; two campaigns with different bases
	// draw unrelated replicate sequences.
	Base uint64
}

// Seeds are the derived sub-seeds of one replicate, one per stochastic knob
// of a scenario.
type Seeds struct {
	// Mapping seeds the random module-to-node placement
	// (scenario.Spec.MappingSeed).
	Mapping uint64
	// Faults seeds the static link-fault pattern (scenario.Spec.FailedLinkSeed).
	Faults uint64
	// Transient seeds the runtime fault schedule (the seed clause of
	// scenario.Spec.Faults). It lives on its own Sub-channel of the stream,
	// so adding it never perturbed the Mapping/Faults words existing
	// campaigns were already drawing.
	Transient uint64
}

// transientChannel is the Sub-stream index reserved for the Transient seed
// channel. New channels take the next index; the parent stream's words stay
// reserved for the original two-word replicate layout.
const transientChannel = 0

// At returns replicate i's seeds: outputs 2i and 2i+1 of the SplitMix64
// sequence seeded at Base, plus one word of the reserved Transient
// sub-channel. The result depends only on (Base, i).
func (s Stream) At(i int) Seeds {
	k := uint64(i) * 2
	return Seeds{
		Mapping:   s.Word(k),
		Faults:    s.Word(k + 1),
		Transient: s.Sub(transientChannel).Word(uint64(i)),
	}
}

// Word returns the i-th raw 64-bit draw of the stream: a pure function of
// (Base, i) with no generator state, so draw k can be recomputed in isolation
// by any consumer. The replicate seeds of At are words 2i and 2i+1; other
// subsystems (the placement optimizer's move streams) address the same
// sequence directly.
func (s Stream) Word(i uint64) uint64 {
	return splitmix.Word(s.Base, i)
}

// Sub derives an independent child stream: child i's draws are unrelated to
// the parent's and to every other child's, yet remain a pure function of
// (Base, i). This is how hierarchical consumers — restart r of an
// optimization run, say — get their own index-addressed randomness without
// coordinating: move k of restart r is Sub(r).Word(k), a function of the one
// base seed.
func (s Stream) Sub(i uint64) Stream {
	// The child base is a fully mixed function of (Base, i): running the
	// counter through the finalizer before it becomes a base keeps child i's
	// word sequence from ever aliasing child j's (a plain additive offset
	// would make Sub(i).Word(k) collide with Sub(i+1).Word(k-1)).
	return Stream{Base: splitmix.Word(splitmix.Mix(s.Base^0xA5A5A5A5A5A5A5A5), i)}
}
