package controlplane

import (
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestShardedPartitionCoversMesh(t *testing.T) {
	for _, tc := range []struct{ mesh, shards int }{{4, 2}, {4, 3}, {8, 4}, {8, 7}, {5, 25}} {
		deps := testDeps(tc.mesh, routing.NewEAR())
		s, err := New(Config{Kind: KindSharded, Shards: tc.shards, StalenessFrames: 1}, deps)
		if err != nil {
			t.Fatal(err)
		}
		k := tc.mesh * tc.mesh
		next := 0
		for b := 0; b < s.Shards(); b++ {
			lo, hi := s.shards[b].lo, s.shards[b].hi
			if lo != next || hi <= lo {
				t.Fatalf("%dx%d/%d shards: shard %d owns [%d,%d), want contiguous from %d", tc.mesh, tc.mesh, tc.shards, b, lo, hi, next)
			}
			// Near-equal split: no shard more than one node larger than another.
			if size := hi - lo; size < k/tc.shards || size > k/tc.shards+1 {
				t.Fatalf("shard %d size %d, want %d or %d", b, size, k/tc.shards, k/tc.shards+1)
			}
			next = hi
		}
		if next != k {
			t.Fatalf("partition covers [0,%d), want [0,%d)", next, k)
		}
	}
}

// TestNewRejectsBadConfig: New validates once, through Config.validate,
// before it builds anything. Zero shards and zero staleness are not errors:
// they select DefaultShards and one frame.
func TestNewRejectsBadConfig(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	for _, cfg := range []Config{
		{Kind: KindSharded, Shards: 17},
		{Kind: KindSharded, Shards: -1},
		{Kind: KindSharded, StalenessFrames: -1},
		{Kind: KindCentralized, Shards: 2},
	} {
		if _, err := New(cfg, deps); err == nil {
			t.Errorf("New(%+v) on 16 nodes accepted an invalid configuration", cfg)
		}
	}
}

// TestShardedStalenessDefersRemoteVisibility: a change inside one shard is
// acted on by its own region immediately, but by the other regions only at
// the next summary-exchange frame.
func TestShardedStalenessDefersRemoteVisibility(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	const staleness = 4
	s, err := New(Config{Kind: KindSharded, Shards: 2, StalenessFrames: staleness}, deps)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)

	// Frame 1 is always an exchange frame: both regions bootstrap.
	s.Frame(1, snap)
	if s.RecomputeCount(0) != 1 || s.RecomputeCount(1) != 1 {
		t.Fatalf("bootstrap recomputes = %d,%d, want 1,1", s.RecomputeCount(0), s.RecomputeCount(1))
	}

	// Frame 2: change a node owned by shard 1 (range [8,16) on the 4x4 mesh).
	lo1 := s.shards[1].lo
	snap.Status[lo1+2].BatteryLevel = 3
	s.Frame(2, snap)
	if s.RecomputeCount(1) != 2 {
		t.Fatalf("owning region did not react to its own node: recomputes = %d, want 2", s.RecomputeCount(1))
	}
	if s.RecomputeCount(0) != 1 {
		t.Fatalf("remote region saw the change before the exchange frame: recomputes = %d, want 1", s.RecomputeCount(0))
	}

	// Frames 3-4: nothing new anywhere; nobody recomputes.
	s.Frame(3, snap)
	s.Frame(4, snap)
	if s.RecomputeCount(0) != 1 || s.RecomputeCount(1) != 2 {
		t.Fatalf("quiet frames recomputed: %d,%d, want 1,2", s.RecomputeCount(0), s.RecomputeCount(1))
	}

	// Frame 5 = 1 + staleness: the exchange delivers shard 1's change to
	// shard 0, which now recomputes; shard 1 already adopted it.
	s.Frame(5, snap)
	if s.RecomputeCount(0) != 2 || s.RecomputeCount(1) != 2 {
		t.Fatalf("exchange-frame recomputes = %d,%d, want 2,2", s.RecomputeCount(0), s.RecomputeCount(1))
	}
}

// TestShardedRegionDeathFreezesTables: a region whose controller pool dies
// stops recomputing (its nodes keep the last downloaded tables) while the
// surviving regions continue to adapt; once every pool is dead the plane
// reports ControllersDead.
func TestShardedRegionDeathFreezesTables(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	deps.Controllers = 1
	// Finite but effectively inexhaustible: death is injected per region below.
	deps.ControllerBattery = battery.IdealFactory(1e12)
	s, err := New(Config{Kind: KindSharded, Shards: 2, StalenessFrames: 1}, deps)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	s.Frame(1, snap)
	lo0 := s.shards[0].lo
	preDeath := s.NextHop(topology.NodeID(lo0), topology.NodeID(lo0+1))

	// Exhaust region 0's only controller.
	exhaust := func(region int) {
		c, err := s.shards[region].pool.Active()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Drain(2e12)
	}
	exhaust(0)
	snap.Status[5].BatteryLevel = 2 // visible change for every region
	rep := s.Frame(2, snap)
	if rep.ControllersDead {
		t.Fatal("plane reported all-dead with one surviving region")
	}
	if !s.shards[0].dead || s.shards[1].dead {
		t.Fatalf("region deaths = %v, %v, want true, false", s.shards[0].dead, s.shards[1].dead)
	}
	if s.RecomputeCount(0) != 1 {
		t.Fatalf("dead region recomputed: %d, want frozen at 1", s.RecomputeCount(0))
	}
	if s.RecomputeCount(1) != 2 {
		t.Fatalf("surviving region did not adapt: %d, want 2", s.RecomputeCount(1))
	}
	// The dead region's nodes still route on the frozen generation.
	if got := s.NextHop(topology.NodeID(lo0), topology.NodeID(lo0+1)); got != preDeath {
		t.Fatalf("frozen NextHop = %d, want %d", got, preDeath)
	}

	// Exhaust region 1 as well: the next frame is the Sec 7.3 system death.
	exhaust(1)
	rep = s.Frame(3, snap)
	if !rep.ControllersDead {
		t.Fatal("plane did not report ControllersDead with every region exhausted")
	}
	if !s.shards[1].dead {
		t.Fatal("region 1 survived its exhausted pool")
	}
}

// TestShardedDeterminism: two planes driven by the same snapshot sequence
// must make identical decisions — the recompute schedule is a pure function
// of (frame index, reported state).
func TestShardedDeterminism(t *testing.T) {
	var batsA, batsB []battery.Battery
	build := func(bats *[]battery.Battery) *Sharded {
		deps := testDeps(6, routing.NewEAR())
		// Inexhaustible batteries, so each controller's spent energy is kept.
		deps.ControllerBattery = recording(battery.IdealFactory(1e12), bats)
		s, err := New(Config{Kind: KindSharded, Shards: 3, StalenessFrames: 4}, deps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(&batsA), build(&batsB)
	snap := fullState(a.deps.Graph, 8)
	for frame := int64(1); frame <= 50; frame++ {
		st := &snap.Status[int(frame*7)%len(snap.Status)]
		st.BatteryLevel = int(frame) % 8
		if frame%13 == 0 {
			st.Alive = false
		}
		repA := a.Frame(frame, snap)
		repB := b.Frame(frame, snap)
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("frame %d: reports diverged: %+v vs %+v", frame, repA, repB)
		}
	}
	for shard := 0; shard < a.Shards(); shard++ {
		if a.RecomputeCount(shard) != b.RecomputeCount(shard) {
			t.Fatalf("shard %d recompute counts diverged: %d vs %d", shard, a.RecomputeCount(shard), b.RecomputeCount(shard))
		}
	}
	if len(batsA) != a.Shards() {
		t.Fatalf("built %d controller batteries, want one per region (%d)", len(batsA), a.Shards())
	}
	for i := range batsA {
		if batsA[i].DeliveredPJ() != batsB[i].DeliveredPJ() {
			t.Fatalf("controller %d consumed energy diverged", i)
		}
	}
}

// BenchmarkShardedRecompute measures one worst-case sharded control frame on
// the 8x8 mesh: a battery change visible to every region, so all four regions
// re-run the routing phases. This is the sharded counterpart of the
// centralized controller hot path guarded in internal/routing.
func BenchmarkShardedRecompute(b *testing.B) {
	deps := testDeps(8, routing.NewEAR())
	s, err := New(Config{Kind: KindSharded, Shards: 4, StalenessFrames: 1}, deps)
	if err != nil {
		b.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	// Warm the steady state before the timer starts: the first frame builds
	// every per-region workspace, and the first *changed* frames grow the
	// delta scratch (adjacency lists, table ping-pong buffers) on demand.
	// Without the changed warm-up frames those one-time allocations land
	// inside the timed loop and show up as a nonzero B/op next to the
	// 0 allocs/op they amortise to.
	for w := 0; w < 3; w++ {
		st := &snap.Status[w%len(snap.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		s.Frame(int64(w)+1, snap)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &snap.Status[i%len(snap.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		s.Frame(int64(i)+4, snap)
	}
}
