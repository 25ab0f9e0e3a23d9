package sim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

// TestFaultFreeScheduleIsByteIdentical: a schedule that can never fire (only
// a seed, no channels) must leave the simulator on the exact trajectory it
// takes without one, every Result field identical, not statistically close.
func TestFaultFreeScheduleIsByteIdentical(t *testing.T) {
	cfg := defaultConfig(t, 4)
	ref, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	seeded.Faults = faults.Spec{Seed: 5}
	got, err := runOnce(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("seed-only schedule changed the run:\n%+v\nvs\n%+v", got, ref)
	}
	if got.FaultsInjected != 0 || got.FaultsRecovered != 0 || got.LinksBroken != 0 {
		t.Fatalf("fault counters nonzero without active channels: %+v", got)
	}
}

// TestEngineFaultDeterminism runs a chaotic configuration (all three
// stochastic channels live) and checks that the fault seed feeds the draws:
// another seed takes another trajectory. That two runs of one spec agree is
// TestEnergyConservation's procs subtest, on every registered chaos scenario.
func TestEngineFaultDeterminism(t *testing.T) {
	cfg := chaoticConfig(t)
	a, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultsInjected == 0 || a.FaultsRecovered == 0 {
		t.Fatalf("chaotic config injected %d / recovered %d faults; the test exercises nothing",
			a.FaultsInjected, a.FaultsRecovered)
	}
	other := cfg
	other.Faults.Seed++
	c, err := runOnce(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("changing the fault seed left the trajectory untouched")
	}
}

func runOnce(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// chaoticConfig is a 6x6 mesh with every stochastic fault channel enabled at
// rates high enough to fire within the run's lifetime.
func chaoticConfig(tb testing.TB) Config {
	cfg := defaultConfig(tb, 6)
	cfg.Faults = faults.Spec{
		Seed:               7,
		LinkRate:           0.1,
		LinkRecoveryFrames: 6,
		NodeRate:           0.05,
		NodeRecoveryFrames: 10,
		WearMeanTraversals: 200,
	}
	return cfg
}

// BenchmarkFaultInjection measures the frame-boundary overhead of a live
// fault schedule against the bare simulator on the same mesh (compare with
// BenchmarkSimulatorRun/bare for the no-schedule baseline cost).
func BenchmarkFaultInjection(b *testing.B) {
	cfg := chaoticConfig(b)
	b.ReportAllocs()
	var injected int
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		injected = s.Run().FaultsInjected
	}
	b.ReportMetric(float64(injected), "faults")
}
