package core_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// strategy builds the strategy a spec describes.
func strategy(t *testing.T, sp scenario.Spec) *core.Strategy {
	t.Helper()
	s, err := sp.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEARStrategyDefaults: the zero spec builds the paper's setup.
func TestEARStrategyDefaults(t *testing.T) {
	s := strategy(t, scenario.Spec{Mesh: 4})
	if s.Run.Algorithm.Name() != "EAR" {
		t.Errorf("algorithm = %s", s.Run.Algorithm.Name())
	}
	if s.Mesh.Size() != 16 || s.Run.App.Name != "AES-128" || s.Mapper.Name() != "checkerboard" ||
		s.Run.Controllers != 1 || s.Run.ControllerBattery != nil || s.Run.ConcurrentJobs != 1 {
		t.Errorf("unexpected defaults: %+v", s)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("materialised config invalid: %v", err)
	}
}

func TestSDRStrategyDiffersOnlyInAlgorithm(t *testing.T) {
	ear := strategy(t, scenario.Spec{Mesh: 5})
	sdr := strategy(t, scenario.Spec{Mesh: 5, Algorithm: scenario.AlgorithmSDR})
	if sdr.Run.Algorithm.Name() != "SDR" {
		t.Errorf("SDR strategy = %+v", sdr)
	}
	if ear.Mesh.Size() != sdr.Mesh.Size() || ear.Run.App.Name != sdr.Run.App.Name ||
		ear.Run.Controllers != sdr.Run.Controllers || ear.Run.ConcurrentJobs != sdr.Run.ConcurrentJobs {
		t.Error("EAR and SDR strategies differ in more than the routing algorithm")
	}
}

func TestSimulateAndUpperBound(t *testing.T) {
	s := strategy(t, scenario.Spec{Mesh: 4, MaxCycles: 200000})
	res, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Fatal("no jobs completed")
	}
	bound, err := s.UpperBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound.Jobs < 131 || bound.Jobs > 132 {
		t.Errorf("4x4 upper bound = %.2f, want ~131.4 (Table 2)", bound.Jobs)
	}
	if float64(res.JobsCompleted) > bound.Jobs {
		t.Errorf("simulated jobs (%d) exceed the upper bound (%.2f)", res.JobsCompleted, bound.Jobs)
	}
}

func TestEARLevelsPropagateToConfig(t *testing.T) {
	cfg, err := strategy(t, scenario.Spec{Mesh: 4, EARQ: 3, BatteryLevels: 16}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BatteryLevels != 16 {
		t.Errorf("BatteryLevels = %d, want 16 from the EAR parameters", cfg.BatteryLevels)
	}
}

func TestConfigErrorsOnImpossibleMapping(t *testing.T) {
	// A two-module application set on the strategy cannot be mapped with the
	// checkerboard rule; Config must surface the mapping error.
	b := app.NewBuilder("two")
	m1 := b.AddModule("a", 10)
	m2 := b.AddModule("b", 10)
	twoMod, err := b.Step(m1).Step(m2).Build()
	if err != nil {
		t.Fatal(err)
	}
	s := strategy(t, scenario.Spec{Mesh: 4})
	s.Run.App = twoMod
	if _, err := s.Config(); err == nil {
		t.Fatal("Config should fail when the mapping strategy rejects the application")
	}
	if _, err := s.Simulate(); err == nil {
		t.Fatal("Simulate should fail when the mapping strategy rejects the application")
	}
}

func TestWithFailedLinksIsIdempotent(t *testing.T) {
	s := strategy(t, scenario.Spec{Mesh: 5, FailedLinkFraction: 0.2, FailedLinkSeed: 3})
	intact := 2 * (2*5*5 - 5 - 5)
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	damaged := len(cfg.Graph.Links())
	if damaged >= intact {
		t.Fatalf("no links were removed: %d links", damaged)
	}
	if !cfg.Graph.Connected() {
		t.Fatal("fault injection disconnected the mesh")
	}
	// Materialising must not mutate the strategy: the platform graph stays
	// intact and the fault parameters stay set.
	if got := len(s.Mesh.Graph.Links()); got != intact {
		t.Fatalf("Config mutated the strategy's own topology: %d links, want %d", got, intact)
	}
	if s.FailedLinkFraction != 0.2 || s.FailedLinkSeed != 3 {
		t.Fatalf("Config cleared the fault parameters: fraction %g, seed %d", s.FailedLinkFraction, s.FailedLinkSeed)
	}
	// A second materialisation yields the identical damaged topology.
	cfg2, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.Graph.Links()) != damaged {
		t.Fatalf("second Config call changed the topology: %d -> %d links", damaged, len(cfg2.Graph.Links()))
	}
	for _, l := range cfg.Graph.Links() {
		if _, ok := cfg2.Graph.Link(l.From, l.To); !ok {
			t.Fatalf("second materialisation removed different links: %d -> %d missing", l.From, l.To)
		}
	}
	// And two simulations of the same damaged strategy agree exactly.
	res, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Fatal("no jobs completed on the damaged mesh")
	}
	res2, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != res2.JobsCompleted || res.LifetimeCycles != res2.LifetimeCycles {
		t.Fatalf("repeated simulation of a damaged strategy diverged: %d/%d jobs",
			res.JobsCompleted, res2.JobsCompleted)
	}
	// An invalid fraction written on the strategy must surface as an error
	// (scenario.Spec rejects it before a strategy exists).
	s.FailedLinkFraction = 1.2
	if _, err := s.Config(); err == nil {
		t.Fatal("invalid failure fraction accepted")
	}
}

func TestStrategySimulateMatchesDirectSimUse(t *testing.T) {
	s := strategy(t, scenario.Spec{Mesh: 4})
	viaStrategy, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := simulator.Run()
	if viaStrategy.JobsCompleted != direct.JobsCompleted || viaStrategy.LifetimeCycles != direct.LifetimeCycles {
		t.Errorf("facade result (%d jobs) differs from direct sim result (%d jobs)",
			viaStrategy.JobsCompleted, direct.JobsCompleted)
	}
}
