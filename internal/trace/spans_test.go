package trace_test

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// chromeDoc mirrors the Chrome trace-event JSON shape for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Args map[string]int64 `json:"args"`
	} `json:"traceEvents"`
}

func TestSpansRecordEnginePhases(t *testing.T) {
	rec := &trace.Spans{}
	res := runTraced(t, rec)
	if rec.Len() == 0 {
		t.Fatal("flight recorder captured no spans")
	}
	byName := map[string]int{}
	for _, sp := range rec.Spans() {
		byName[sp.Name]++
		if sp.Cat != "engine" {
			t.Fatalf("unexpected category %q for span %q", sp.Cat, sp.Name)
		}
		if sp.DurationNS < 0 || sp.StartNS < 0 {
			t.Fatalf("negative time in span %+v", sp)
		}
	}
	if byName["snapshot"] == 0 {
		t.Error("no snapshot spans")
	}
	if byName["schedule"] == 0 {
		t.Error("no schedule spans")
	}
	control := byName["control-full"] + byName["control-incremental"] + byName["control-idle"]
	if int64(control) > res.Frames || control == 0 {
		t.Errorf("%d control spans for %d frames", control, res.Frames)
	}
	if byName["control-full"] != res.FullRecomputes {
		t.Errorf("control-full spans = %d, want %d", byName["control-full"], res.FullRecomputes)
	}
}

func TestSpansDoNotPerturbTheSimulation(t *testing.T) {
	bare := runTraced(t)
	recorded := runTraced(t, &trace.Spans{})
	if bare.JobsCompleted != recorded.JobsCompleted || bare.LifetimeCycles != recorded.LifetimeCycles ||
		bare.Energy != recorded.Energy || bare.Frames != recorded.Frames {
		t.Errorf("flight recorder changed the result:\nbare:     %+v\nrecorded: %+v", bare, recorded)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	rec := &trace.Spans{}
	res := runTraced(t, rec)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChromeTrace produced invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	frameRe := regexp.MustCompile(`^frame \d+$`)
	frames := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete events (X)", e.Name, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("negative timestamp in %+v", e)
		}
		if frameRe.MatchString(e.Name) {
			frames++
			if e.TID != 0 {
				t.Fatalf("frame container %q on tid %d, want 0", e.Name, e.TID)
			}
		}
	}
	// One synthesized container per frame that reached the snapshot phase.
	if frames == 0 || int64(frames) > res.Frames {
		t.Errorf("%d frame containers for %d frames", frames, res.Frames)
	}
}

func TestSpansCellObserver(t *testing.T) {
	rec := &trace.Spans{}
	cell := rec.CellObserver()
	epoch := time.Now()
	cell(0, 1, epoch, 5*time.Millisecond)
	cell(7, 0, epoch.Add(2*time.Millisecond), time.Millisecond)
	cell(0, 0, epoch.Add(-time.Millisecond), time.Millisecond) // a second pool run; earlier than the anchor: clamped
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "cell 0" || spans[0].Cat != "runner" || spans[0].TID != 101 || spans[0].Frame != -1 || spans[0].Index != 0 {
		t.Errorf("cell span = %+v", spans[0])
	}
	// Names follow the recorder's count, not the pool-run index, which
	// repeats across runs.
	if spans[1].Name != "cell 1" || spans[1].Index != 7 || spans[2].Name != "cell 2" || spans[2].Index != 0 {
		t.Errorf("cell spans = %+v, %+v; want cell 1 (index 7), cell 2 (index 0)", spans[1], spans[2])
	}
	if spans[1].StartNS != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("second span start = %d, want 2ms after anchor", spans[1].StartNS)
	}
	if spans[2].StartNS != 0 {
		t.Errorf("pre-anchor span start = %d, want clamped to 0", spans[2].StartNS)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("cell-only trace has %d events, want 3 (no frame containers)", len(doc.TraceEvents))
	}
	if got := doc.TraceEvents[1].Args["index"]; got != 7 {
		t.Errorf("second cell event's index argument = %d, want 7", got)
	}
}

func TestEngineMetricsFeedsRegistry(t *testing.T) {
	var before bytes.Buffer
	if err := metrics.Default().WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	countRe := regexp.MustCompile(`(?m)^engine_phase_snapshot_seconds_count (\d+)$`)
	m := countRe.FindSubmatch(before.Bytes())
	if m == nil {
		t.Fatal("engine_phase_snapshot_seconds family missing from the default registry")
	}

	res := runTraced(t, trace.EngineMetrics{})

	var after bytes.Buffer
	if err := metrics.Default().WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	m2 := countRe.FindSubmatch(after.Bytes())
	if m2 == nil {
		t.Fatal("engine_phase_snapshot_seconds family disappeared")
	}
	a, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := strconv.ParseInt(string(m2[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The registry is process-global and other tests may run sims too, so
	// assert growth by at least this run's frames, not an exact value.
	if b-a < res.Frames {
		t.Errorf("snapshot histogram grew by %d, want >= %d (frames of this run)", b-a, res.Frames)
	}
}
