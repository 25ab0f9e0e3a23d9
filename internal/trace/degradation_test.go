package trace_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The Degradation collector derives everything from the observer event
// stream alone, so its edge cases can be driven with synthetic events:
// no simulator needed, and each scenario is exact.

func TestDegradationKillWindowAtFrameZero(t *testing.T) {
	d := &trace.Degradation{}
	// The kill window opens before any frame has been processed — the
	// pathological "system starts degraded" case.
	d.FaultInjected(sim.FaultEvent{Frame: 0, Kind: faults.RegionDown, Shard: 1})
	for f := int64(1); f <= 4; f++ {
		d.FrameProcessed(sim.FrameEvent{Frame: f})
	}
	d.FaultRecovered(sim.FaultEvent{Frame: 4, Kind: faults.RegionUp, Shard: 1})
	d.FrameProcessed(sim.FrameEvent{Frame: 5})

	if got := d.FramesDegraded(); got != 4 {
		t.Errorf("FramesDegraded = %d, want 4 (frames 1..4)", got)
	}
	if got := d.Recovery().Count(); got != 1 {
		t.Fatalf("recovery samples = %d, want 1", got)
	}
	if got := d.Recovery().Max(); got != 4 {
		t.Errorf("recovery time = %g frames, want 4 (injected at 0, recovered at 4)", got)
	}
	if d.OpenWindows() != 0 {
		t.Errorf("OpenWindows = %d after recovery, want 0", d.OpenWindows())
	}
}

func TestDegradationOverlappingWindows(t *testing.T) {
	d := &trace.Degradation{}
	// Link (1,2) down frames 1..5; link (3,4) down frames 3..8: the overlap
	// (3..5) must count degraded once, not twice, and each window yields its
	// own recovery sample.
	d.FaultInjected(sim.FaultEvent{Frame: 1, Kind: faults.LinkDown, From: 1, To: 2})
	step := func(f int64) { d.FrameProcessed(sim.FrameEvent{Frame: f}) }
	step(1)
	step(2)
	d.FaultInjected(sim.FaultEvent{Frame: 3, Kind: faults.LinkDown, From: 4, To: 3})
	step(3)
	step(4)
	// Recovery events carry the endpoints in either order; the canonical
	// link key must match them up regardless.
	d.FaultRecovered(sim.FaultEvent{Frame: 5, Kind: faults.LinkUp, From: 2, To: 1})
	step(5)
	step(6)
	step(7)
	d.FaultRecovered(sim.FaultEvent{Frame: 8, Kind: faults.LinkUp, From: 3, To: 4})
	step(8)
	step(9)

	if got := d.FramesDegraded(); got != 7 {
		t.Errorf("FramesDegraded = %d, want 7 (frames 1..7; overlap counted once)", got)
	}
	if got := d.Recovery().Count(); got != 2 {
		t.Fatalf("recovery samples = %d, want 2", got)
	}
	if mean := d.Recovery().Mean(); mean != 4.5 {
		t.Errorf("recovery mean = %g, want 4.5 ((4+5)/2)", mean)
	}
	if d.OpenWindows() != 0 {
		t.Errorf("OpenWindows = %d, want 0", d.OpenWindows())
	}
}

func TestDegradationAdjacentWindows(t *testing.T) {
	d := &trace.Degradation{}
	// A node crash recovers at frame 3 and a second fault opens at the same
	// frame boundary: degraded time must be continuous (no healthy frame in
	// between) and both windows must resolve independently.
	d.FaultInjected(sim.FaultEvent{Frame: 1, Kind: faults.NodeCrash, Node: 5})
	d.FrameProcessed(sim.FrameEvent{Frame: 1})
	d.FrameProcessed(sim.FrameEvent{Frame: 2})
	d.FaultRecovered(sim.FaultEvent{Frame: 3, Kind: faults.NodeRestore, Node: 5})
	d.FaultInjected(sim.FaultEvent{Frame: 3, Kind: faults.NodeCrash, Node: 9})
	d.FrameProcessed(sim.FrameEvent{Frame: 3})
	d.FrameProcessed(sim.FrameEvent{Frame: 4})
	d.FaultRecovered(sim.FaultEvent{Frame: 5, Kind: faults.NodeRestore, Node: 9})
	d.FrameProcessed(sim.FrameEvent{Frame: 5})

	if got := d.FramesDegraded(); got != 4 {
		t.Errorf("FramesDegraded = %d, want 4 (frames 1..4, continuous across the handover)", got)
	}
	if got := d.Recovery().Count(); got != 2 {
		t.Fatalf("recovery samples = %d, want 2", got)
	}
	if got := d.Recovery().Max(); got != 2 {
		t.Errorf("recovery max = %g, want 2 frames per window", got)
	}
}

func TestDegradationUnrecoveredWindows(t *testing.T) {
	d := &trace.Degradation{}
	// Three channels open and the run ends before any recovery arrives.
	d.FaultInjected(sim.FaultEvent{Frame: 1, Kind: faults.LinkDown, From: 0, To: 1})
	d.FaultInjected(sim.FaultEvent{Frame: 2, Kind: faults.NodeCrash, Node: 3})
	d.FaultInjected(sim.FaultEvent{Frame: 3, Kind: faults.RegionDown, Shard: 0})
	for f := int64(1); f <= 6; f++ {
		d.FrameProcessed(sim.FrameEvent{Frame: f})
	}

	if got := d.OpenWindows(); got != 3 {
		t.Errorf("OpenWindows = %d, want 3 (nothing recovered)", got)
	}
	if got := d.Recovery().Count(); got != 0 {
		t.Errorf("recovery samples = %d, want 0 (no recovery before run end)", got)
	}
	if got := d.FramesDegraded(); got != 6 {
		t.Errorf("FramesDegraded = %d, want 6", got)
	}
	if got := d.Retention(); got != 0 {
		t.Errorf("Retention = %g, want 0 (no healthy throughput observed)", got)
	}
}

func TestDegradationRecoveryWithoutInjection(t *testing.T) {
	d := &trace.Degradation{}
	// A recovery event with no matching open window (e.g. the observer was
	// attached mid-run) must not panic or emit a bogus sample.
	d.FaultRecovered(sim.FaultEvent{Frame: 5, Kind: faults.LinkUp, From: 1, To: 2})
	if got := d.Recovery().Count(); got != 0 {
		t.Errorf("recovery samples = %d, want 0 for an unmatched recovery", got)
	}
	if d.OpenWindows() != 0 {
		t.Errorf("OpenWindows = %d, want 0", d.OpenWindows())
	}
}

func TestDegradationRetention(t *testing.T) {
	d := &trace.Degradation{}
	// Two healthy frames deliver 4 jobs (2/frame); four frames under a node
	// crash deliver 2 (0.5/frame): a quarter of the healthy rate is kept.
	for f := int64(1); f <= 2; f++ {
		d.JobCompleted(sim.JobEvent{})
		d.JobCompleted(sim.JobEvent{})
		d.FrameProcessed(sim.FrameEvent{Frame: f})
	}
	if got := d.Retention(); got != 0 {
		t.Errorf("Retention = %g before any fault, want 0", got)
	}
	d.FaultInjected(sim.FaultEvent{Frame: 3, Kind: faults.NodeCrash, Node: 2})
	for f := int64(3); f <= 6; f++ {
		if f%2 == 0 {
			d.JobCompleted(sim.JobEvent{})
		}
		d.FrameProcessed(sim.FrameEvent{Frame: f})
	}
	if got := d.JobsDegraded(); got != 2 {
		t.Errorf("JobsDegraded = %d, want 2", got)
	}
	if got := d.Retention(); got != 0.25 {
		t.Errorf("Retention = %g, want 0.25", got)
	}
}
