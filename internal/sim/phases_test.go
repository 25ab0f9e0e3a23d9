package sim

import (
	"testing"
)

// phaseRecorder is a Config.Observers entry that also implements
// PhaseObserver, turning the span clock on.
type phaseRecorder struct {
	BaseObserver
	spans []PhaseSpanEvent
}

func (r *phaseRecorder) PhaseSpan(e PhaseSpanEvent) { r.spans = append(r.spans, e) }

func (r *phaseRecorder) count(p Phase) int {
	n := 0
	for _, e := range r.spans {
		if e.Phase == p {
			n++
		}
	}
	return n
}

func TestPhaseSpansEmitted(t *testing.T) {
	rec := &phaseRecorder{}
	res := run(t, 4, func(c *Config) { c.Observers = append(c.Observers, rec) })
	if res.Frames == 0 {
		t.Fatal("run completed zero frames; test scenario too small")
	}
	if len(rec.spans) == 0 {
		t.Fatal("no phase spans emitted with a PhaseObserver attached")
	}

	// Control spans classify by the plane's cumulative recompute split;
	// the totals must agree exactly with the result counters.
	full, incr := rec.count(PhaseControlFull), rec.count(PhaseControlIncremental)
	if full != res.FullRecomputes {
		t.Errorf("control-full spans = %d, want %d (res.FullRecomputes)", full, res.FullRecomputes)
	}
	if incr != res.IncrementalRecomputes {
		t.Errorf("control-incremental spans = %d, want %d (res.IncrementalRecomputes)", incr, res.IncrementalRecomputes)
	}
	control := full + incr + rec.count(PhaseControlIdle)
	snapshots := rec.count(PhaseSnapshot)
	if control > snapshots {
		t.Errorf("%d control spans but %d snapshot spans; every control call follows a snapshot", control, snapshots)
	}
	if got := int64(snapshots); got > res.Frames {
		t.Errorf("%d snapshot spans for %d frames", got, res.Frames)
	}
	if rec.count(PhaseFaults) != 0 {
		t.Error("faults spans emitted without a fault schedule")
	}
	if rec.count(PhaseSchedule) == 0 {
		t.Error("no schedule spans emitted")
	}

	// Spans are well-formed on a single monotone clock starting at zero.
	prevStart := int64(0)
	for i, e := range rec.spans {
		if e.StartNS < 0 || e.DurationNS < 0 {
			t.Fatalf("span %d has negative time: %+v", i, e)
		}
		if e.StartNS < prevStart {
			t.Fatalf("span %d starts before its predecessor: %+v", i, e)
		}
		prevStart = e.StartNS
		if e.Frame < 1 || e.Frame > res.Frames {
			t.Fatalf("span %d has out-of-range frame: %+v", i, e)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); int(p) < PhaseCount; p++ {
		name := p.String()
		if name == "unknown" || name == "" {
			t.Errorf("phase %d has no name", p)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if Phase(250).String() != "unknown" {
		t.Error("out-of-range phase should stringify as unknown")
	}
}
