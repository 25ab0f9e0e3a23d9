package sim

import (
	"testing"
)

// TestCancelStopsRun pins the cancellation contract: a run whose Cancel
// channel is already closed stops at its first scheduling boundary with
// Reason DeathCancelled, well before the system would have died on its own.
func TestCancelStopsRun(t *testing.T) {
	done := make(chan struct{})
	close(done)

	cfg := defaultConfig(t, 4)
	cfg.Cancel = done
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := s.Run()
	if res.Reason != DeathCancelled {
		t.Fatalf("Reason = %q, want %q", res.Reason, DeathCancelled)
	}

	// The uncancelled baseline runs to module extinction and completes jobs;
	// the cancelled run must have stopped essentially immediately.
	base := defaultConfig(t, 4)
	bs, err := New(base)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	full := bs.Run()
	if full.Reason == DeathCancelled {
		t.Fatalf("baseline run reported cancellation")
	}
	if res.LifetimeCycles >= full.LifetimeCycles && full.LifetimeCycles > 0 {
		t.Fatalf("cancelled run lived %d cycles, baseline %d — cancellation did not cut the run short",
			res.LifetimeCycles, full.LifetimeCycles)
	}
}

// TestCancelMidRunIsPrompt cancels from an observer hook a few frames in and
// checks the engine stops at the next boundary instead of running to death.
func TestCancelMidRunIsPrompt(t *testing.T) {
	done := make(chan struct{})
	stopAfter := int64(3)
	obs := &cancelAtFrame{frame: stopAfter, done: done}

	cfg := defaultConfig(t, 4)
	cfg.Cancel = done
	cfg.Observers = []Observer{obs}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := s.Run()
	if res.Reason != DeathCancelled {
		t.Fatalf("Reason = %q, want %q", res.Reason, DeathCancelled)
	}
	// The engine checks the channel once per scheduling iteration; the run
	// must end within a frame or two of the trigger, not tens of frames later.
	if res.Frames > stopAfter+2 {
		t.Fatalf("run continued to frame %d after cancellation at frame %d", res.Frames, stopAfter)
	}
}

type cancelAtFrame struct {
	BaseObserver
	frame  int64
	done   chan struct{}
	closed bool
}

func (c *cancelAtFrame) FrameProcessed(e FrameEvent) {
	if !c.closed && e.Frame >= c.frame {
		c.closed = true
		close(c.done)
	}
}
