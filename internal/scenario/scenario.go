// Package scenario turns the paper's notion of an evaluation scenario into
// declarative, nameable data. A Spec captures everything that distinguishes
// one simulation run from another — mesh size, routing algorithm, module
// mapping, battery model, controller configuration, offered load, link
// faults, payload verification — as plain values, and materialises into a
// runnable core.Strategy with Spec.Strategy(), the one way every front end
// builds a run.
//
// The package also keeps a registry of named scenarios: every figure/table
// scenario of the paper plus additional stress and degradation workloads.
// Registered scenarios are what `etsim -scenario <name>` runs and what
// `etsim -list-scenarios` enumerates; adding a new workload to the whole
// stack is one Register call, not an engine change.
package scenario

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Values for Spec.Algorithm.
const (
	// AlgorithmEAR selects the paper's energy-aware routing (the default).
	AlgorithmEAR = "EAR"
	// AlgorithmSDR selects shortest-distance routing.
	AlgorithmSDR = "SDR"
)

// Values for Spec.Battery.
const (
	// BatteryThinFilm selects the thin-film model with the rate-capacity
	// effect (the default).
	BatteryThinFilm = "thinfilm"
	// BatteryIdeal selects the ideal linear cell of the Table 2 comparison.
	BatteryIdeal = "ideal"
)

// Values for Spec.Mapping.
const (
	// MappingCheckerboard is the paper's interleaved mapping (the default).
	MappingCheckerboard = "checkerboard"
	// MappingProportional derives duplicate counts from the Theorem-1
	// normalized energies.
	MappingProportional = "proportional"
	// MappingRowMajor clusters each module's duplicates in contiguous
	// blocks.
	MappingRowMajor = "row-major"
	// MappingRandom assigns modules pseudo-randomly, seeded by
	// Spec.MappingSeed.
	MappingRandom = "random"
	// MappingExplicit replays the exact placement carried in
	// Spec.Assignment (the canonical comma-separated form of
	// mapping.Explicit) — typically a placement discovered by the
	// internal/optimize search and emitted by `etopt -emit-spec`.
	MappingExplicit = "explicit"
)

// MappingNames lists the accepted Spec.Mapping values, for CLI error
// messages.
func MappingNames() []string {
	return []string{MappingCheckerboard, MappingProportional, MappingRowMajor, MappingRandom, MappingExplicit}
}

// PaperKey is the AES-128 key used whenever a scenario requests payload
// verification (the FIPS-197 Appendix B key, also used by the smartshirt
// example).
func PaperKey() []byte {
	return []byte{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}
}

// Spec is one declarative simulation scenario. The zero value of every field
// selects the paper's default (EAR, checkerboard mapping, thin-film node
// batteries, one infinite-energy controller, one job in flight, pristine
// fabric, no payload); only Mesh is required. Specs are plain data: copy
// them, mutate copies, register them under a name — materialising one never
// mutates it.
type Spec struct {
	// Name identifies the scenario in the registry and in output labels.
	Name string
	// Description is the one-line summary shown by `etsim -list-scenarios`.
	Description string
	// Group clusters related scenarios in the `etsim -list-scenarios`
	// listing (e.g. "paper figures", "big mesh"); scenarios with an empty
	// Group are listed last under "other".
	Group string

	// Mesh is the square mesh size (the platform has Mesh x Mesh nodes).
	Mesh int
	// Algorithm is the routing algorithm: AlgorithmEAR (default) or
	// AlgorithmSDR.
	Algorithm string
	// EARQ overrides the EAR battery-weighting base Q (0 = paper default).
	// Normalized rejects values routing.EARParams.Validate does not accept:
	// negative or non-finite ones, and those that spread the penalties past
	// 2^32.
	EARQ float64
	// BatteryLevels overrides the battery quantisation level count
	// (0 = algorithm default; negative values are rejected by Normalized).
	BatteryLevels int
	// Battery is the node battery model: BatteryThinFilm (default) or
	// BatteryIdeal.
	Battery string
	// Mapping is the module-to-node mapping strategy: MappingCheckerboard
	// (default), MappingProportional, MappingRowMajor or MappingRandom.
	Mapping string
	// MappingSeed seeds MappingRandom.
	MappingSeed uint64
	// Assignment is the explicit module placement replayed by
	// MappingExplicit: the module of every node in NodeID order,
	// comma-separated (mapping.Explicit's canonical text form). Ignored by
	// the other mapping strategies.
	Assignment string
	// Controllers is the number of redundant controllers. 0 defaults to 1 (a
	// single controller, the paper's setup); negative values are rejected
	// by Normalized. Under ControlPlane "sharded" this is the
	// controller count per regional pool.
	Controllers int
	// ControlPlane selects the controller architecture: "" or "centralized"
	// (the paper's single central controller, the default) or "sharded"
	// (regional controllers owning contiguous mesh shards).
	ControlPlane string
	// Shards is the number of regional controllers under ControlPlane
	// "sharded" (0 = controlplane.DefaultShards). Invalid with the
	// centralized plane.
	Shards int
	// StalenessFrames is the period, in TDMA frames, at which regional
	// controllers exchange battery summaries about each other's shards
	// (0 = 1 = every frame). Invalid with the centralized plane.
	StalenessFrames int
	// Recompute selects the controller's phase-2 strategy: "" or
	// "incremental" (dirty-set repair with automatic full fallback) or
	// "full" (always the complete Floyd–Warshall pass). The strategies give
	// byte-identical outputs whenever path sums are exact, which covers
	// every registered scenario and every dyadic EARQ; at other Q they can
	// differ until the repair handles rounded sums.
	Recompute string
	// FiniteControllers attaches thin-film batteries to the controllers
	// (the Sec 7.3 scenario); false models the infinite-energy controller.
	FiniteControllers bool
	// ConcurrentJobs is the number of jobs kept in flight (0 = 1; negative
	// values are rejected by Normalized).
	ConcurrentJobs int
	// FailedLinkFraction removes that fraction of the interconnects before
	// the run (wear-and-tear); it must lie in [0,1). FailedLinkSeed selects
	// the deterministic fault pattern.
	FailedLinkFraction float64
	FailedLinkSeed     uint64
	// Faults is a runtime fault schedule in the compact clause form of
	// faults.ParseSpec (e.g. "link=0.05:8,kill=1@40:80,seed=7"): transient
	// link faults, wear breaks, node crashes and controller-region kill
	// windows injected mid-run at frame boundaries. Empty injects nothing.
	// Monte-Carlo campaigns re-seed the schedule per replicate from the
	// Transient seed channel.
	Faults string
	// VerifyPayload makes every job carry a real AES block encrypted with
	// PaperKey and verified against the reference cipher.
	VerifyPayload bool
	// CollectNodeStats enables per-node statistics in the result.
	CollectNodeStats bool
	// MaxCycles bounds the simulated time (0 = run to system death;
	// negative values are rejected by Normalized).
	MaxCycles int64
}

// Label returns the scenario's display name: Name if set, otherwise an
// algorithm-mesh synthetic label.
func (sp Spec) Label() string {
	if sp.Name != "" {
		return sp.Name
	}
	alg := sp.Algorithm
	if alg == "" {
		alg = AlgorithmEAR
	}
	return fmt.Sprintf("%s-%dx%d", alg, sp.Mesh, sp.Mesh)
}

// earParams returns the EAR parameters of a normalized spec.
func (sp Spec) earParams() routing.EARParams {
	return routing.EARParams{Q: sp.EARQ, Levels: sp.BatteryLevels}
}

// control returns the control-plane configuration of a normalized spec.
func (sp Spec) control() controlplane.Config {
	return controlplane.Config{Kind: controlplane.Kind(sp.ControlPlane), Shards: sp.Shards,
		StalenessFrames: sp.StalenessFrames, Recompute: sp.Recompute}
}

// Strategy materialises the spec into a runnable core.Strategy. It accepts
// exactly the specs Normalized accepts, and it reads every value from the
// normalized spec, so a run is by construction the one its fingerprint
// names. Callers attach observers or a cancel channel, or swap the
// platform's App or Mapper, by writing the returned strategy's fields.
func (sp Spec) Strategy() (*core.Strategy, error) {
	n, p, err := sp.normalize()
	if err != nil {
		return nil, err
	}
	var alg routing.Algorithm = routing.SDR{}
	// Nodes quantise their battery reports to EAR's levels; SDR reads no
	// levels, and its runs report at the EAR default.
	levels := routing.DefaultEARParams().Levels
	if n.Algorithm == AlgorithmEAR {
		alg = routing.EAR{Params: n.earParams()}
		levels = n.BatteryLevels
	}
	var nodeBattery battery.Factory
	if n.Battery == BatteryIdeal {
		nodeBattery = battery.IdealFactory(battery.DefaultNominalPJ)
	} else {
		nodeBattery = battery.DefaultThinFilmFactory()
	}

	mesh, err := topology.NewSquareMesh(n.Mesh)
	if err != nil {
		return nil, err
	}
	s := &core.Strategy{
		Mesh:               mesh,
		Mapper:             mapping.Checkerboard{},
		FailedLinkFraction: n.FailedLinkFraction,
		FailedLinkSeed:     n.FailedLinkSeed,
		Run: sim.Config{
			App:              app.AES128(),
			Algorithm:        alg,
			NodeBattery:      nodeBattery,
			Controllers:      n.Controllers,
			Control:          n.control(),
			Faults:           p.schedule,
			BatteryLevels:    levels,
			ConcurrentJobs:   n.ConcurrentJobs,
			MaxCycles:        n.MaxCycles,
			CollectNodeStats: n.CollectNodeStats,
		},
	}
	if n.FiniteControllers {
		s.Run.ControllerBattery = battery.DefaultThinFilmFactory()
	}
	if n.VerifyPayload {
		s.Run.Key = PaperKey()
	}

	switch n.Mapping {
	case MappingProportional:
		bound, err := s.UpperBound()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: deriving proportional weights: %w", sp.Label(), err)
		}
		s.Mapper = mapping.Proportional{Weights: bound.NormalizedEnergies}
	case MappingRowMajor:
		s.Mapper = mapping.RowMajor{}
	case MappingRandom:
		s.Mapper = mapping.Random{Seed: n.MappingSeed}
	case MappingExplicit:
		s.Mapper = p.placement
	}
	return s, nil
}

// Simulate materialises the spec and runs it to completion, attaching the
// given observers to the simulator's event stream.
func (sp Spec) Simulate(obs ...sim.Observer) (sim.Result, error) {
	s, err := sp.Strategy()
	if err != nil {
		return sim.Result{}, err
	}
	s.Run.Observers = obs
	return s.Simulate()
}
