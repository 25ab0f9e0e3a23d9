// Package core is the top-level facade of the library: it bundles the four
// ingredients the paper calls a routing strategy RS — network topology,
// module mapping, control mechanism and routing algorithm — into a single
// Strategy value that can be simulated with et_sim and compared against the
// Theorem-1 upper bound.
//
// Strategies are built from declarative scenario specs:
//
//	strategy, _ := scenario.Spec{Mesh: 4}.Strategy() // 4x4 mesh, paper defaults
//	result, _ := strategy.Simulate()                 // run et_sim to system death
//	bound, _ := strategy.UpperBound()                // Theorem 1 for the same setup
//	fmt.Println(result.JobsCompleted, bound.Jobs)
package core

import (
	"repro/internal/analytic"
	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/controlplane"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Strategy is one fully specified routing strategy plus the platform it runs
// on. scenario.Spec.Strategy builds it; callers that need a custom platform
// override App or Mapper on the built value, and runtime attachments
// (Observers, Cancel) are plain field writes. Every strategy uses the paper's
// transmission line and TDMA control mechanism.
type Strategy struct {
	// Mesh is the platform topology.
	Mesh *topology.Mesh
	// App is the target application.
	App *app.Application
	// Mapper produces the module-to-node mapping.
	Mapper mapping.Strategy
	// Algorithm is the online routing algorithm.
	Algorithm routing.Algorithm
	// NodeBattery builds each node's battery.
	NodeBattery battery.Factory
	// Controllers is the number of redundant controllers (whole central pool,
	// or per regional pool under the sharded control plane).
	Controllers int
	// Control selects the control-plane architecture; the zero value is the
	// paper's centralized controller.
	Control controlplane.Config
	// ControllerBattery builds controller batteries; nil means infinite.
	ControllerBattery battery.Factory
	// ConcurrentJobs is the number of jobs kept in flight.
	ConcurrentJobs int
	// Key optionally enables end-to-end AES payload verification.
	Key []byte
	// CollectNodeStats enables per-node statistics.
	CollectNodeStats bool
	// MaxCycles optionally bounds the simulated time.
	MaxCycles int64
	// Observers are attached to the simulator's event stream (battery
	// time-series, throughput traces, ...; see internal/trace).
	Observers []sim.Observer
	// Cancel, when non-nil, aborts the simulation at the next scheduling
	// boundary once closed (see sim.Config.Cancel); request-scoped callers set
	// it to their context's Done channel.
	Cancel <-chan struct{}
	// FailedLinkFraction removes that fraction of the mesh interconnects
	// (wear-and-tear) before the simulation starts; FailedLinkSeed selects
	// the deterministic fault pattern.
	FailedLinkFraction float64
	FailedLinkSeed     uint64
	// Faults is the deterministic runtime fault schedule applied during the
	// simulation (transient link faults, wear breaks, node crashes,
	// controller-region kill windows); the zero value injects nothing.
	Faults faults.Spec
}

// Config materialises the strategy into a simulator configuration. It never
// mutates the strategy: fault injection runs on a clone of the platform
// graph, so materialising the same strategy twice yields identical
// (independently damaged) topologies.
func (s *Strategy) Config() (sim.Config, error) {
	graph := s.Mesh.Graph
	if s.FailedLinkFraction > 0 {
		graph = graph.Clone()
		// A shortfall (the fabric could not shed the full target without
		// partitioning) is deliberately tolerated here: near-saturation
		// fractions damage the garment as much as connectivity allows.
		if _, _, err := topology.FailLinks(graph, s.FailedLinkFraction, s.FailedLinkSeed); err != nil {
			return sim.Config{}, err
		}
	}
	m, err := s.Mapper.Map(graph, s.App)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Graph:             graph,
		App:               s.App,
		Mapping:           m,
		Algorithm:         s.Algorithm,
		NodeBattery:       s.NodeBattery,
		Controllers:       s.Controllers,
		Control:           s.Control,
		ControllerBattery: s.ControllerBattery,
		BatteryLevels:     routing.DefaultEARParams().Levels,
		ConcurrentJobs:    s.ConcurrentJobs,
		Key:               s.Key,
		CollectNodeStats:  s.CollectNodeStats,
		MaxCycles:         s.MaxCycles,
		Cancel:            s.Cancel,
		Observers:         s.Observers,
		Faults:            s.Faults,
	}
	if ear, ok := s.Algorithm.(routing.EAR); ok && ear.Params.Levels > 0 {
		cfg.BatteryLevels = ear.Params.Levels
	}
	return cfg, nil
}

// Simulate runs et_sim for this strategy and returns the result.
func (s *Strategy) Simulate() (sim.Result, error) {
	cfg, err := s.Config()
	if err != nil {
		return sim.Result{}, err
	}
	simulator, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return simulator.Run(), nil
}

// UpperBound evaluates Theorem 1 for this strategy's application, mesh and
// battery budget (the nominal capacity of one node battery).
func (s *Strategy) UpperBound() (analytic.Bound, error) {
	budget := s.NodeBattery().NominalPJ()
	return analytic.MeshUpperBound(s.App, energy.PaperTransmissionLine(), s.Mesh.SpacingCM(), budget, s.Mesh.Size())
}
