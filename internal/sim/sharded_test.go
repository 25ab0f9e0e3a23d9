package sim

import (
	"testing"

	"repro/internal/battery"
	"repro/internal/controlplane"
	"repro/internal/tdma"
)

// sharded mutates a default config onto the sharded control plane.
func sharded(shards, staleness int) func(*Config) {
	return func(c *Config) {
		c.Control = controlplane.Config{Kind: controlplane.KindSharded, Shards: shards, StalenessFrames: staleness}
	}
}

func TestShardedSimulationRunsAndReportsShards(t *testing.T) {
	res := run(t, 6, sharded(4, 8))
	if res.ControlPlane != "sharded" {
		t.Fatalf("ControlPlane = %q, want sharded", res.ControlPlane)
	}
	if len(res.ShardRecomputes) != 4 {
		t.Fatalf("ShardRecomputes has %d entries, want 4", len(res.ShardRecomputes))
	}
	if res.JobsCompleted == 0 {
		t.Fatal("sharded run completed no jobs")
	}
	total := 0
	for shard, n := range res.ShardRecomputes {
		if n == 0 {
			t.Errorf("shard %d never recomputed", shard)
		}
		total += n
	}
	// RoutingRecomputes counts frames with at least one regional recompute,
	// so it can never exceed the per-region total.
	if res.RoutingRecomputes > total {
		t.Errorf("RoutingRecomputes = %d exceeds the summed per-shard count %d", res.RoutingRecomputes, total)
	}
	// The centralized result shape is pinned elsewhere; here just assert the
	// centralized plane keeps the nil sentinel.
	if c := run(t, 4, nil); c.ControlPlane != "centralized" || c.ShardRecomputes != nil {
		t.Errorf("centralized result = (%q, %v), want (centralized, nil)", c.ControlPlane, c.ShardRecomputes)
	}
}

// TestShardedFiniteControllersDie covers the Sec 7.3 death under the sharded
// plane: with one battery-powered controller per region the run must end in
// DeathControllersDead once every region's pool is exhausted.
func TestShardedFiniteControllersDie(t *testing.T) {
	res := run(t, 4, func(c *Config) {
		sharded(2, 1)(c)
		c.Controllers = 1
		c.ControllerBattery = battery.DefaultThinFilmFactory()
	})
	if res.Reason != DeathControllersDead {
		t.Fatalf("reason = %s, want controllers-dead", res.Reason)
	}
	if len(res.ShardRecomputes) != 2 {
		t.Fatalf("ShardRecomputes has %d entries, want 2", len(res.ShardRecomputes))
	}
}

// TestShardedProcessFrameZeroAllocSteadyState extends the control-plane perf
// guard to the sharded plane: once every region's view, workspace and table
// buffers are warm, a full control frame — including regional recomputes —
// must not heap-allocate.
func TestShardedProcessFrameZeroAllocSteadyState(t *testing.T) {
	cfg := defaultConfig(t, 6)
	cfg.NodeBattery = battery.IdealFactory(battery.DefaultNominalPJ)
	sharded(3, 2)(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	drain := func() {
		n := s.nodes[step%2]
		s.drawNode(n, n.battery.NominalPJ()*0.01)
		step++
	}
	// Warm up until every region has recomputed at least twice (frames with
	// battery drift recompute the draining nodes' regions every frame, the
	// others on exchange frames).
	warm := func() bool {
		for shard := 0; shard < s.plane.Shards(); shard++ {
			if s.plane.RecomputeCount(shard) < 2 {
				return false
			}
		}
		return true
	}
	for i := 0; !warm() && i < 100; i++ {
		drain()
		s.now += tdma.FramePeriodCycles
		s.processFrame()
	}
	if s.dead || !warm() {
		t.Fatalf("warm-up did not reach steady state (dead=%v)", s.dead)
	}
	allocs := testing.AllocsPerRun(64, func() {
		drain()
		s.now += tdma.FramePeriodCycles
		s.processFrame()
	})
	if allocs != 0 {
		t.Errorf("steady-state sharded processFrame allocated %.1f times per run, want 0", allocs)
	}
	if s.dead {
		t.Fatal("system died during the alloc guard; the guard must measure steady state")
	}
}
