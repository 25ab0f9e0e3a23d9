package controlplane

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// frameOn runs one sharded frame over a fresh copy of the master state
// (Frame may be called with the same snapshot every frame because the
// sharded plane copies, never retains).
func frameOn(s *Sharded, frame int64, snap *routing.SystemState) FrameReport {
	return s.Frame(frame, snap)
}

// TestShardedFailoverAdoptionAndHandback follows one region through a full
// kill window: its home block is adopted by the nearest in-service region
// (tie to the lower index), served from that region's tables, and handed
// back when the window closes — with the adoption visible in the frame
// report both times.
func TestShardedFailoverAdoptionAndHandback(t *testing.T) {
	deps := testDeps(8, routing.NewEAR())
	s, err := New(Config{Kind: KindSharded, Shards: 4, StalenessFrames: 1}, deps)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	if rep := frameOn(s, 1, snap); len(rep.Failovers) != 0 || rep.Adopted != 0 {
		t.Fatalf("bootstrap frame reported failovers: %+v", rep)
	}
	lo, hi := s.shards[1].lo, s.shards[1].hi
	orphan := topology.NodeID(lo)

	s.FaultRegion(1, true)
	rep := frameOn(s, 2, snap)
	// Region 1's neighbours 0 and 2 are both distance 1; the tie goes to 0.
	want := Failover{From: 1, To: 0, Home: 1, Nodes: hi - lo}
	if len(rep.Failovers) != 1 || rep.Failovers[0] != want {
		t.Fatalf("failovers = %+v, want [%+v]", rep.Failovers, want)
	}
	if rep.Adopted != hi-lo {
		t.Fatalf("adopted gauge = %d, want %d", rep.Adopted, hi-lo)
	}
	if got := s.owner[orphan]; got != 0 {
		t.Fatalf("orphan served by region %d, want 0", got)
	}
	if !s.ownerOf(orphan).tables.Has(orphan) {
		t.Fatal("orphan node has no routing table during the kill window")
	}
	// The assignment is stable while the window stays open.
	rep = frameOn(s, 3, snap)
	if len(rep.Failovers) != 0 || rep.Adopted != hi-lo {
		t.Fatalf("steady-state window frame: %+v", rep)
	}

	s.FaultRegion(1, false)
	rep = frameOn(s, 4, snap)
	back := Failover{From: 0, To: 1, Home: 1, Nodes: hi - lo}
	if len(rep.Failovers) != 1 || rep.Failovers[0] != back {
		t.Fatalf("hand-back failovers = %+v, want [%+v]", rep.Failovers, back)
	}
	if rep.Adopted != 0 {
		t.Fatalf("adopted gauge = %d after hand-back, want 0", rep.Adopted)
	}
	if got := s.owner[orphan]; got != 1 {
		t.Fatalf("node served by region %d after hand-back, want its home 1", got)
	}
}

// TestShardedLastRegionDownOrdering kills the regions one by one until none
// is in service, then restores them: each kill cascades the orphaned blocks
// to the nearest survivor, the final kill leaves every block on its own
// (frozen) tables rather than deadlocking the assignment, and recovery
// re-adopts in the same deterministic way.
func TestShardedLastRegionDownOrdering(t *testing.T) {
	deps := testDeps(8, routing.NewEAR())
	s, err := New(Config{Kind: KindSharded, Shards: 4, StalenessFrames: 1}, deps)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	frameOn(s, 1, snap)
	blockSize := 16 // 64 nodes / 4 shards

	serving := func() [4]int {
		var out [4]int
		for b := 0; b < 4; b++ {
			out[b] = s.owner[s.shards[b].lo]
		}
		return out
	}

	steps := []struct {
		kill    int
		adopted int
		owners  [4]int
	}{
		{0, blockSize, [4]int{1, 1, 2, 3}},     // 0 -> nearest survivor 1
		{1, 2 * blockSize, [4]int{2, 2, 2, 3}}, // 0 and 1 cascade to 2
		{2, 3 * blockSize, [4]int{3, 3, 3, 3}}, // everyone on the last survivor
		{3, 0, [4]int{0, 1, 2, 3}},             // nobody left: every block on its own frozen tables
	}
	frame := int64(2)
	for _, step := range steps {
		s.FaultRegion(step.kill, true)
		rep := frameOn(s, frame, snap)
		frame++
		if rep.Adopted != step.adopted {
			t.Fatalf("after killing %d: adopted = %d, want %d", step.kill, rep.Adopted, step.adopted)
		}
		if got := serving(); got != step.owners {
			t.Fatalf("after killing %d: owners = %v, want %v", step.kill, got, step.owners)
		}
	}
	// With every region down nothing is served live, but the frozen tables
	// must still answer (the mesh routes on last-known-good).
	recomputes := func() (n int) {
		for b := 0; b < 4; b++ {
			n += s.RecomputeCount(b)
		}
		return n
	}
	before := recomputes()
	rep := frameOn(s, frame, snap)
	frame++
	if recomputes() != before || rep.ControllerPJ != 0 {
		t.Fatalf("all-down frame still did controller work: %+v, %d recomputes", rep, recomputes()-before)
	}
	for n := 0; n < 64; n++ {
		if node := topology.NodeID(n); !s.ownerOf(node).tables.Has(node) {
			t.Fatalf("node %d lost its frozen table with all regions down", n)
		}
	}

	// One region returns: it serves the whole mesh.
	s.FaultRegion(2, false)
	rep = frameOn(s, frame, snap)
	frame++
	if rep.Adopted != 3*blockSize {
		t.Fatalf("single survivor adopted %d nodes, want %d", rep.Adopted, 3*blockSize)
	}
	if got := serving(); got != [4]int{2, 2, 2, 2} {
		t.Fatalf("owners after restoring region 2: %v, want all 2", got)
	}
	// Full recovery: the assignment returns to the identity.
	for _, b := range []int{0, 1, 3} {
		s.FaultRegion(b, false)
	}
	rep = frameOn(s, frame, snap)
	if rep.Adopted != 0 {
		t.Fatalf("adopted = %d after full recovery, want 0", rep.Adopted)
	}
	if got := serving(); got != [4]int{0, 1, 2, 3} {
		t.Fatalf("owners after full recovery: %v, want identity", got)
	}
}

// TestShardedOrphanDeadlockMidAdoption pins the deadlock-visibility contract
// across a failover: a node that deadlocks while its home region is
// fault-down is observed (exactly once) by its adopter, not lost until the
// home region returns.
func TestShardedOrphanDeadlockMidAdoption(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	// Staleness 8: outside exchange frames a region only sees the blocks it
	// serves, so the orphan's report is visible to region 0 only because of
	// the adoption.
	s, err := New(Config{Kind: KindSharded, Shards: 2, StalenessFrames: 8}, deps)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	frameOn(s, 1, snap)

	s.FaultRegion(1, true)
	lo := s.shards[1].lo
	snap.Status[lo].Deadlocked = true
	rep := frameOn(s, 2, snap) // not an exchange frame (staleness 8)
	if rep.NewDeadlockReports != 1 {
		t.Fatalf("adopter observed %d deadlock reports, want 1", rep.NewDeadlockReports)
	}
	// The report is edge-triggered: the same stuck node is not re-counted.
	if rep := frameOn(s, 3, snap); rep.NewDeadlockReports != 0 {
		t.Fatalf("deadlock re-counted mid-adoption: %d", rep.NewDeadlockReports)
	}
	// Nor is it re-counted by the home region when the window closes and the
	// node is handed back.
	s.FaultRegion(1, false)
	if rep := frameOn(s, 4, snap); rep.NewDeadlockReports != 0 {
		t.Fatalf("deadlock re-counted after hand-back: %d", rep.NewDeadlockReports)
	}
}
