package trace_test

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTraced runs the default scenario on a 4x4 mesh with the given observers
// attached.
func runTraced(t *testing.T, obs ...sim.Observer) sim.Result {
	t.Helper()
	st, err := scenario.Spec{Mesh: 4}.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := st.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.CollectNodeStats = true
	cfg.Observers = obs
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestObserversDoNotPerturbTheSimulation(t *testing.T) {
	bare := runTraced(t)
	traced := runTraced(t, &trace.LatencyHistogram{}, &trace.Timeline{}, &trace.Degradation{})
	if bare.JobsCompleted != traced.JobsCompleted || bare.LifetimeCycles != traced.LifetimeCycles ||
		bare.Energy != traced.Energy || bare.Reason != traced.Reason || bare.Frames != traced.Frames {
		t.Errorf("attaching observers changed the result:\nbare:   %+v\ntraced: %+v", bare, traced)
	}
}

func TestTimelineMatchesResult(t *testing.T) {
	tl := &trace.Timeline{}
	res := runTraced(t, tl)
	rows := tl.Rows()
	if int64(len(rows)) != res.Frames+1 { // one per frame plus the end-of-run row
		t.Fatalf("timeline recorded %d rows, result says %d frames", len(rows), res.Frames)
	}
	last := rows[len(rows)-1]
	if last.JobsCompleted != res.JobsCompleted || last.JobsLost != res.JobsLost {
		t.Errorf("final row (%+v) disagrees with result (%d completed, %d lost)",
			last, res.JobsCompleted, res.JobsLost)
	}
	for i, r := range rows {
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.JobsCompleted < prev.JobsCompleted || r.JobsLost < prev.JobsLost || r.DeadNodes < prev.DeadNodes {
			t.Fatalf("cumulative counts fell at row %d: %+v after %+v", i, r, prev)
		}
		if i < len(rows)-1 && r.Frame != prev.Frame+1 {
			t.Fatalf("frame numbering not contiguous at row %d", i)
		}
	}
	if len(tl.Table().Rows) != len(rows) {
		t.Error("Table row count mismatch")
	}
}

func TestTimelineBatteryDischarges(t *testing.T) {
	tl := &trace.Timeline{}
	runTraced(t, tl)
	rows := tl.Rows()
	first, last := rows[0], rows[len(rows)-1]
	if first.MeanRemainingPJ <= 0 {
		t.Fatalf("first row carries no battery aggregate: %+v", first)
	}
	if last.MeanRemainingPJ >= first.MeanRemainingPJ {
		t.Errorf("fleet did not discharge: first mean %.1f pJ, last mean %.1f pJ",
			first.MeanRemainingPJ, last.MeanRemainingPJ)
	}
	for i, r := range rows {
		if r.MinRemainingPJ > r.MeanRemainingPJ+1e-9 {
			t.Fatalf("row %d: min %.1f above mean %.1f", i, r.MinRemainingPJ, r.MeanRemainingPJ)
		}
		if r.MeanFraction < 0 || r.MeanFraction > 1 {
			t.Fatalf("row %d: fraction %.3f out of range", i, r.MeanFraction)
		}
	}
}

// TestTimelineCarriesBatteryForward drives the collector with synthetic
// events: a frame in which no node reports, and the end-of-run row, carry the
// last reported aggregate, and reports after the last closed frame are not
// folded in.
func TestTimelineCarriesBatteryForward(t *testing.T) {
	tl := &trace.Timeline{}
	tl.BatterySampled(sim.BatteryEvent{Frame: 0, RemainingPJ: 30, Fraction: 0.5})
	tl.BatterySampled(sim.BatteryEvent{Frame: 0, RemainingPJ: 10, Fraction: 0.25})
	tl.FrameProcessed(sim.FrameEvent{Frame: 0})
	tl.FrameProcessed(sim.FrameEvent{Frame: 1})
	tl.BatterySampled(sim.BatteryEvent{Frame: 2, RemainingPJ: 1, Fraction: 0})
	tl.RunFinished(sim.FinishEvent{Frame: 2})

	want := trace.TimelineRow{MeanRemainingPJ: 20, MinRemainingPJ: 10, MeanFraction: 0.375}
	rows := tl.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.MeanRemainingPJ != want.MeanRemainingPJ || r.MinRemainingPJ != want.MinRemainingPJ ||
			r.MeanFraction != want.MeanFraction {
			t.Errorf("row %d battery columns = %+v, want frame 0's %+v", i, r, want)
		}
	}
}

func TestLatencyHistogram(t *testing.T) {
	h := &trace.LatencyHistogram{}
	res := runTraced(t, h)
	if h.Min() <= 0 || h.Max() < h.Min() || h.Mean() < float64(h.Min()) || h.Mean() > float64(h.Max()) {
		t.Errorf("implausible latency stats: min %d, mean %.1f, max %d", h.Min(), h.Mean(), h.Max())
	}
	buckets := h.Buckets(8)
	count := 0
	for _, b := range buckets {
		count += b.Count
		if b.ToCycles <= b.FromCycles {
			t.Fatalf("empty-width bucket: %+v", b)
		}
	}
	if count != res.JobsCompleted {
		t.Errorf("buckets hold %d jobs, want %d", count, res.JobsCompleted)
	}
	if len(h.Table(8).Rows) == 0 {
		t.Error("histogram table empty")
	}
	var empty trace.LatencyHistogram
	if empty.Buckets(4) != nil || empty.Mean() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestTimelineCSVIsDeterministic(t *testing.T) {
	tl1 := &trace.Timeline{}
	res := runTraced(t, tl1)
	tl2 := &trace.Timeline{}
	runTraced(t, tl2)
	csv1, csv2 := tl1.CSV(), tl2.CSV()
	if csv1 != csv2 {
		t.Fatal("two identical runs produced different timeline CSVs")
	}
	lines := strings.Split(strings.TrimSpace(csv1), "\n")
	if len(lines) != int(res.Frames)+2 { // header + one row per frame + end-of-run row
		t.Errorf("CSV has %d lines, want %d frames + header + final row", len(lines), res.Frames)
	}
	if !strings.HasPrefix(lines[0], "frame,cycle,jobs_completed") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	rows := tl1.Rows()
	last := rows[len(rows)-1]
	if last.JobsCompleted != res.JobsCompleted || last.JobsLost != res.JobsLost {
		t.Errorf("final timeline row %+v disagrees with result", last)
	}
	if last.DeadNodes > res.DeadNodes {
		t.Errorf("timeline counted %d dead nodes, result says %d", last.DeadNodes, res.DeadNodes)
	}
}
