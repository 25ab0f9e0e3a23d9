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
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Strategy is one fully specified routing strategy plus the platform it runs
// on. scenario.Spec.Strategy builds it; callers that need a custom platform
// override Run.App or Mapper on the built value, and runtime attachments
// (Run.Observers, Run.Cancel) are plain field writes. Every strategy uses the
// paper's transmission line and TDMA control mechanism.
type Strategy struct {
	// Mesh is the platform topology.
	Mesh *topology.Mesh
	// Mapper produces the module-to-node mapping.
	Mapper mapping.Strategy
	// FailedLinkFraction removes that fraction of the mesh interconnects
	// (wear-and-tear) before the simulation starts; FailedLinkSeed selects
	// the deterministic fault pattern.
	FailedLinkFraction float64
	FailedLinkSeed     uint64
	// Run is the rest of the simulator configuration: application,
	// algorithm, batteries, control plane, load, faults and runtime
	// attachments. Its Graph and Mapping are overwritten by Config.
	Run sim.Config
}

// Config materialises the strategy into a simulator configuration: a copy
// of Run whose Graph is the mesh (with FailedLinkFraction of its links
// removed) and whose Mapping is Mapper's placement of Run.App on it. It never
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
	m, err := s.Mapper.Map(graph, s.Run.App)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := s.Run
	cfg.Graph = graph
	cfg.Mapping = m
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
	budget := s.Run.NodeBattery().NominalPJ()
	return analytic.MeshUpperBound(s.Run.App, s.Mesh.SpacingCM(), budget, s.Mesh.Size())
}
