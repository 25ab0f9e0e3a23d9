package scenario

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sameResult compares everything except the per-node slice (which is not
// comparable with ==; its aggregate is covered by DeadNodes and Energy).
func sameResult(a, b sim.Result) bool {
	return a.Algorithm == b.Algorithm && a.MeshNodes == b.MeshNodes &&
		a.JobsCompleted == b.JobsCompleted && a.JobsLost == b.JobsLost &&
		a.LifetimeCycles == b.LifetimeCycles && a.Frames == b.Frames &&
		a.RoutingRecomputes == b.RoutingRecomputes && a.DeadlockReports == b.DeadlockReports &&
		a.DeadNodes == b.DeadNodes && a.Reason == b.Reason && a.Energy == b.Energy &&
		a.PayloadJobsVerified == b.PayloadJobsVerified && a.PayloadMismatches == b.PayloadMismatches
}

func TestRegistryHasThePaperAndStressScenarios(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry holds %d scenarios, want at least 10: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{
		"paper-default", "paper-sdr", "table2-ideal", "smartshirt-verified",
		"stress-burst", "degraded-fabric", "dual-controller-finite",
		"random-mapping-sweep", "random-mapping-sweep-sdr",
		"degraded-fabric-mc", "degraded-random-mc",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q missing from the registry", want)
		}
	}
	// The replication-oriented scenarios exist to be re-drawn by campaign
	// seed streams: each must carry at least one seed-derived stochastic
	// knob (a random mapping or an injected fault pattern).
	for _, name := range []string{
		"random-mapping-sweep", "random-mapping-sweep-sdr",
		"degraded-fabric-mc", "degraded-random-mc",
	} {
		sp, _ := Lookup(name)
		if sp.Mapping != MappingRandom && sp.FailedLinkFraction == 0 {
			t.Errorf("scenario %q has no seed-derived field to replicate over", name)
		}
	}
	if len(All()) != len(names) {
		t.Error("All() and Names() disagree")
	}
	rows := 0
	for _, table := range GroupedTables() {
		rows += len(table.Rows)
	}
	if rows != len(names) {
		t.Errorf("GroupedTables() lists %d scenarios, want %d", rows, len(names))
	}
}

func TestEveryRegisteredScenarioMaterialises(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			s, err := sp.Strategy()
			if err != nil {
				t.Fatalf("Strategy: %v", err)
			}
			cfg, err := s.Config()
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("materialised config invalid: %v", err)
			}
			if cfg.Graph.NodeCount() != sp.Mesh*sp.Mesh {
				t.Errorf("graph has %d nodes, want %d", cfg.Graph.NodeCount(), sp.Mesh*sp.Mesh)
			}
		})
	}
}

// runSettings is what Strategy materialises from a spec, in a comparable
// form: the battery factories are functions, so they are compared by the
// battery they build.
type runSettings struct {
	Algorithm          routing.Algorithm
	NodeBattery        string
	Controllers        int
	Control            controlplane.Config
	ControllerBattery  bool
	Faults             faults.Spec
	BatteryLevels      int
	ConcurrentJobs     int
	MaxCycles          int64
	Key                []byte
	CollectNodeStats   bool
	Mapper             mapping.Strategy
	FailedLinkFraction float64
	FailedLinkSeed     uint64
}

func settingsOf(t *testing.T, sp Spec) runSettings {
	t.Helper()
	s, err := sp.Strategy()
	if err != nil {
		t.Fatalf("%+v: Strategy: %v", sp, err)
	}
	return runSettings{
		Algorithm:          s.Run.Algorithm,
		NodeBattery:        fmt.Sprintf("%T %g", s.Run.NodeBattery(), s.Run.NodeBattery().NominalPJ()),
		Controllers:        s.Run.Controllers,
		Control:            s.Run.Control,
		ControllerBattery:  s.Run.ControllerBattery != nil,
		Faults:             s.Run.Faults,
		BatteryLevels:      s.Run.BatteryLevels,
		ConcurrentJobs:     s.Run.ConcurrentJobs,
		MaxCycles:          s.Run.MaxCycles,
		Key:                s.Run.Key,
		CollectNodeStats:   s.Run.CollectNodeStats,
		Mapper:             s.Mapper,
		FailedLinkFraction: s.FailedLinkFraction,
		FailedLinkSeed:     s.FailedLinkSeed,
	}
}

// TestStrategyBuildsFromNormalizedSpec: Strategy reads every value from the
// normalized spec, so a spec and its normalized form run the same settings,
// and so do a zero field and the default it stands for.
func TestStrategyBuildsFromNormalizedSpec(t *testing.T) {
	const sharded = "sharded"
	pairs := []struct {
		name       string
		zero, full Spec
	}{
		{"controllers", Spec{Mesh: 4}, Spec{Mesh: 4, Controllers: 1}},
		{"jobs", Spec{Mesh: 4}, Spec{Mesh: 4, ConcurrentJobs: 1}},
		{"shards", Spec{Mesh: 8, ControlPlane: sharded}, Spec{Mesh: 8, ControlPlane: sharded, Shards: 4}},
		{"staleness", Spec{Mesh: 8, ControlPlane: sharded}, Spec{Mesh: 8, ControlPlane: sharded, StalenessFrames: 1}},
		{"ear-q", Spec{Mesh: 4}, Spec{Mesh: 4, EARQ: 2}},
		{"battery-levels", Spec{Mesh: 4}, Spec{Mesh: 4, BatteryLevels: 8}},
		{"recompute", Spec{Mesh: 4}, Spec{Mesh: 4, Recompute: "incremental"}},
		{"battery", Spec{Mesh: 4}, Spec{Mesh: 4, Battery: BatteryThinFilm}},
		{"mapping", Spec{Mesh: 4}, Spec{Mesh: 4, Mapping: MappingCheckerboard}},
	}
	for _, p := range pairs {
		if got, want := settingsOf(t, p.zero), settingsOf(t, p.full); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the zero spec runs\n%+v\nthe spelled-out default runs\n%+v", p.name, got, want)
		}
	}
	specs := All()
	for _, p := range pairs {
		specs = append(specs, p.zero, p.full)
	}
	for _, sp := range specs {
		n, err := sp.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", sp.Label(), err)
		}
		if got, want := settingsOf(t, sp), settingsOf(t, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the spec runs\n%+v\nits normalized form runs\n%+v", sp.Label(), got, want)
		}
	}
}

// TestSpecMatchesCoreConstructors pins the contract the experiments layer
// depends on: each spec runs exactly the simulation the hand-rolled core
// constructors (core.EAR, core.SDR and their options) produced before specs
// became the only way to build a run, so no figure or table can move. The
// pinned values were recorded from those constructors.
func TestSpecMatchesCoreConstructors(t *testing.T) {
	cases := []struct {
		name             string
		spec             Spec
		jobs             int
		lifetime, frames int64
	}{
		{"ear-default", Spec{Mesh: 4}, 71, 102201, 100},
		{"sdr", Spec{Mesh: 4, Algorithm: AlgorithmSDR}, 10, 14145, 14},
		{"ideal-battery", Spec{Mesh: 4, Battery: BatteryIdeal}, 99, 140001, 137},
		{"finite-controllers", Spec{Mesh: 4, Controllers: 2, FiniteControllers: true}, 16, 22528, 23},
		{"ear-q", Spec{Mesh: 4, EARQ: 3}, 75, 107866, 106},
		{"concurrency", Spec{Mesh: 4, ConcurrentJobs: 3}, 2, 173056, 170},
		{"degraded", Spec{Mesh: 5, FailedLinkFraction: 0.2, FailedLinkSeed: 1}, 98, 134903, 132},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.spec.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			if res.JobsCompleted != tc.jobs || res.LifetimeCycles != tc.lifetime || res.Frames != tc.frames {
				t.Errorf("%+v: %d jobs, %d cycles, %d frames; want %d, %d, %d",
					tc.spec, res.JobsCompleted, res.LifetimeCycles, res.Frames, tc.jobs, tc.lifetime, tc.frames)
			}
		})
	}
}

func TestSpecIsReusable(t *testing.T) {
	sp, ok := Lookup("degraded-fabric")
	if !ok {
		t.Fatal("degraded-fabric not registered")
	}
	a, err := sp.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Errorf("two materialisations of the same spec diverged:\n%+v\n%+v", a, b)
	}
}

func TestSpecRejectsBadValues(t *testing.T) {
	cases := []Spec{
		{},                                                      // missing mesh
		{Mesh: 4, Algorithm: "OSPF"},                            // unknown algorithm
		{Mesh: 4, Battery: "fusion"},                            // unknown battery
		{Mesh: 4, Mapping: "genetic"},                           // unknown mapping
		{Mesh: 4, Controllers: -1},                              // negative controller count
		{Mesh: 4, ControlPlane: "shraded"},                      // unknown control plane
		{Mesh: 4, Shards: -2},                                   // negative shard count
		{Mesh: 4, StalenessFrames: -8},                          // negative staleness
		{Mesh: 4, Shards: 4},                                    // sharding knob on the centralized plane
		{Mesh: 4, StalenessFrames: 8},                           // staleness knob on the centralized plane
		{Mesh: 4, ControlPlane: "sharded", Shards: 17},          // more shards than nodes
		{Mesh: 4, ControlPlane: "sharded", StalenessFrames: -1}, // negative staleness, sharded
		{Mesh: 4, Recompute: "eager"},                           // unknown recompute strategy
		{Mesh: 4, ConcurrentJobs: -1},                           // negative job count
		{Mesh: 4, EARQ: -1},                                     // negative Q
		{Mesh: 4, EARQ: 1e-20},                                  // penalty spread past 2^32
		{Mesh: 4, EARQ: 1e10},                                   // penalty spread past 2^32
		{Mesh: 4, EARQ: 2, BatteryLevels: 34},                   // penalty spread 2^33
		{Mesh: 4, FailedLinkFraction: 1.5},                      // fraction past 1
		{Mesh: 4, FailedLinkFraction: 1},                        // every link failed
		{Mesh: 4, FailedLinkFraction: -0.2},                     // negative fraction
		{Mesh: 4, FailedLinkFraction: math.NaN()},               // NaN fraction
		{Mesh: 4, MaxCycles: -5},                                // negative cycle bound
		{Mesh: 4, BatteryLevels: -3},                            // negative level count
		{Mesh: 4, Algorithm: AlgorithmSDR, BatteryLevels: -3},   // negative level count, SDR
	}
	for _, sp := range cases {
		if _, err := sp.Strategy(); err == nil {
			t.Errorf("Strategy accepted invalid spec %+v", sp)
		}
		if _, err := sp.Simulate(); err == nil {
			t.Errorf("Simulate accepted invalid spec %+v", sp)
		}
	}
	// The control-plane typo error must list the valid names, like every
	// other name-valued spec field.
	_, err := Spec{Mesh: 4, ControlPlane: "shraded"}.Strategy()
	if err == nil || !strings.Contains(err.Error(), "centralized") || !strings.Contains(err.Error(), "sharded") {
		t.Errorf("control-plane typo error %v does not list the valid names", err)
	}
	// The negative-controllers error must point at the 0-defaults-to-1
	// convention so the fix is obvious.
	_, err = Spec{Mesh: 4, Controllers: -1}.Strategy()
	if err == nil || !strings.Contains(err.Error(), "0 defaults to 1") {
		t.Errorf("negative-controllers error %v does not explain the 0 default", err)
	}
}

// TestShardedScenariosRegistered: the sharded control-plane scenarios must be
// in the registry and materialise into sharded configurations.
func TestShardedScenariosRegistered(t *testing.T) {
	for _, name := range []string{"sharded-8x8", "sharded-8x8-stale", "sharded-finite-controllers"} {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing from the registry", name)
		}
		strategy, err := sp.Strategy()
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		if strategy.Run.Control.Kind != controlplane.KindSharded || strategy.Run.Control.Shards < 2 {
			t.Errorf("scenario %q materialised control %+v, want sharded with >=2 shards", name, strategy.Run.Control)
		}
	}
}

// TestBigMeshScenariosRegistered: the big-mesh scaling scenarios must be in
// the registry, grouped, time-bounded (a 4096-node run to system death is not
// a scenario anyone wants by accident) and they must materialise eagerly.
func TestBigMeshScenariosRegistered(t *testing.T) {
	for _, tc := range []struct {
		name string
		mesh int
	}{
		{"big-mesh-16", 16},
		{"big-mesh-64", 64},
	} {
		sp, ok := Lookup(tc.name)
		if !ok {
			t.Fatalf("scenario %q missing from the registry", tc.name)
		}
		if sp.Mesh != tc.mesh {
			t.Errorf("scenario %q mesh = %d, want %d", tc.name, sp.Mesh, tc.mesh)
		}
		if sp.MaxCycles <= 0 {
			t.Errorf("scenario %q is unbounded; big-mesh scenarios must cap MaxCycles", tc.name)
		}
		if sp.Group != GroupBigMesh {
			t.Errorf("scenario %q group = %q, want %q", tc.name, sp.Group, GroupBigMesh)
		}
		if _, err := sp.Strategy(); err != nil {
			t.Errorf("scenario %q does not materialise: %v", tc.name, err)
		}
	}
}

// TestGroupedTablesCoverTheRegistry: the grouped listing must contain every
// registered scenario exactly once, with the built-in groups in canonical
// order and no empty tables.
func TestGroupedTablesCoverTheRegistry(t *testing.T) {
	tables := GroupedTables()
	total := 0
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Error("GroupedTables rendered an empty group")
		}
		total += len(tb.Rows)
	}
	if want := len(All()); total != want {
		t.Errorf("grouped tables hold %d scenarios, registry has %d", total, want)
	}
	if len(tables) < 2 {
		t.Fatalf("grouped listing collapsed to %d table(s)", len(tables))
	}
}

func TestSpecSimulateAttachesObservers(t *testing.T) {
	tl := &trace.Timeline{}
	res, err := Spec{Mesh: 4}.Simulate(tl)
	if err != nil {
		t.Fatal(err)
	}
	rows := tl.Rows()
	if int64(len(rows)) != res.Frames+1 {
		t.Fatalf("observer recorded %d rows, want %d frames + the end-of-run row", len(rows), res.Frames)
	}
	if got := rows[len(rows)-1].JobsCompleted; got != res.JobsCompleted {
		t.Errorf("observer saw %d completions, result says %d", got, res.JobsCompleted)
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(Spec{Mesh: 4}); err == nil {
		t.Error("registered a nameless spec")
	}
	if err := Register(Spec{Name: "paper-default", Mesh: 4}); err == nil {
		t.Error("registered a duplicate name")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("unexpected duplicate error: %v", err)
	}
	name := "test-custom-scenario"
	if err := Register(Spec{Name: name, Description: "test only", Mesh: 4}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, ok := Lookup(name); !ok {
		t.Error("registered scenario not found")
	}
}

func TestLabels(t *testing.T) {
	if got := (Spec{Mesh: 5}).Label(); got != "EAR-5x5" {
		t.Errorf("anonymous EAR label = %q", got)
	}
	if got := (Spec{Mesh: 6, Algorithm: AlgorithmSDR}).Label(); got != "SDR-6x6" {
		t.Errorf("anonymous SDR label = %q", got)
	}
	if got := (Spec{Name: "x", Mesh: 4}).Label(); got != "x" {
		t.Errorf("named label = %q", got)
	}
}

func TestSpecExplicitMapping(t *testing.T) {
	// An explicit assignment replaying the 4x4 checkerboard must simulate
	// identically to the checkerboard default.
	checker := "1,3,1,3,3,2,3,2,1,3,1,3,3,2,3,2"
	base, err := Spec{Mesh: 4}.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Spec{Mesh: 4, Mapping: MappingExplicit, Assignment: checker}.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(base, explicit) {
		t.Errorf("explicit checkerboard result differs from the built-in checkerboard:\n%+v\n%+v", base, explicit)
	}
	// Bad assignments fail to materialise with a descriptive error.
	for _, bad := range []Spec{
		{Mesh: 4, Mapping: MappingExplicit},                             // empty assignment
		{Mesh: 4, Mapping: MappingExplicit, Assignment: "1,2,3"},        // wrong length
		{Mesh: 4, Mapping: MappingExplicit, Assignment: checker + ",1"}, // wrong length
	} {
		if _, err := bad.Strategy(); err == nil {
			t.Errorf("Strategy accepted invalid explicit spec %+v", bad)
		}
	}
}

func TestOptimizedScenariosRegistered(t *testing.T) {
	for _, name := range []string{"optimized-4x4", "optimized-4x4-sdr"} {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if sp.Mapping != MappingExplicit || sp.Assignment == "" {
			t.Fatalf("%s is not an explicit placement: %+v", name, sp)
		}
		if _, err := sp.Strategy(); err != nil {
			t.Errorf("%s does not materialise: %v", name, err)
		}
	}
	// The optimized EAR placement must not fall behind the checkerboard
	// baseline it was searched from.
	opt, _ := Lookup("optimized-4x4")
	optRes, err := opt.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Spec{Mesh: 4}.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if optRes.JobsCompleted < base.JobsCompleted {
		t.Errorf("optimized-4x4 completes %d jobs, checkerboard %d", optRes.JobsCompleted, base.JobsCompleted)
	}
}
