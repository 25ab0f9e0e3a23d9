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
	traced := runTraced(t, &trace.BatterySeries{}, &trace.Throughput{}, &trace.LatencyHistogram{}, &trace.Timeline{})
	if bare.JobsCompleted != traced.JobsCompleted || bare.LifetimeCycles != traced.LifetimeCycles ||
		bare.Energy != traced.Energy || bare.Reason != traced.Reason || bare.Frames != traced.Frames {
		t.Errorf("attaching observers changed the result:\nbare:   %+v\ntraced: %+v", bare, traced)
	}
}

func TestThroughputMatchesResult(t *testing.T) {
	tp := &trace.Throughput{}
	res := runTraced(t, tp)
	if tp.Completed() != res.JobsCompleted {
		t.Errorf("throughput counted %d completions, result says %d", tp.Completed(), res.JobsCompleted)
	}
	frames := tp.Frames()
	if int64(len(frames)) != res.Frames+1 { // one per frame plus the end-of-run sample
		t.Errorf("throughput recorded %d samples, result says %d frames", len(frames), res.Frames)
	}
	last := frames[len(frames)-1]
	if last.Completed != res.JobsCompleted || last.Lost != res.JobsLost {
		t.Errorf("final frame (%+v) disagrees with result (%d completed, %d lost)",
			last, res.JobsCompleted, res.JobsLost)
	}
	deltaSum := 0
	for i, f := range frames {
		deltaSum += f.CompletedDelta
		if f.Completed < 0 || f.CompletedDelta < 0 {
			t.Fatalf("negative counts in frame %d: %+v", i, f)
		}
		if i > 0 && i < len(frames)-1 && f.Frame != frames[i-1].Frame+1 {
			t.Fatalf("frame numbering not contiguous at %d", i)
		}
	}
	if deltaSum != res.JobsCompleted {
		t.Errorf("per-frame deltas sum to %d, want %d", deltaSum, res.JobsCompleted)
	}
	if tp.Table().NumRows() != len(frames) {
		t.Error("Table row count mismatch")
	}
}

func TestBatterySeriesDischarges(t *testing.T) {
	bs := &trace.BatterySeries{}
	res := runTraced(t, bs)
	frames := bs.Frames()
	if len(frames) == 0 {
		t.Fatal("no battery samples recorded")
	}
	first, last := frames[0], frames[len(frames)-1]
	if first.Sampled != res.MeshNodes {
		t.Errorf("first frame sampled %d nodes, want %d", first.Sampled, res.MeshNodes)
	}
	if last.MeanRemainingPJ >= first.MeanRemainingPJ {
		t.Errorf("fleet did not discharge: first mean %.1f pJ, last mean %.1f pJ",
			first.MeanRemainingPJ, last.MeanRemainingPJ)
	}
	for i, f := range frames {
		if f.MinRemainingPJ > f.MeanRemainingPJ+1e-9 {
			t.Fatalf("frame %d: min %.1f above mean %.1f", i, f.MinRemainingPJ, f.MeanRemainingPJ)
		}
		if f.MeanFraction < 0 || f.MeanFraction > 1 {
			t.Fatalf("frame %d: fraction %.3f out of range", i, f.MeanFraction)
		}
	}
	if bs.Table().NumRows() != len(frames) {
		t.Error("Table row count mismatch")
	}
	if pts := bs.Series().Points; len(pts) != len(frames) {
		t.Error("Series point count mismatch")
	}
}

func TestLatencyHistogram(t *testing.T) {
	h := &trace.LatencyHistogram{}
	res := runTraced(t, h)
	if len(h.Latencies()) != res.JobsCompleted {
		t.Fatalf("histogram holds %d latencies, want %d", len(h.Latencies()), res.JobsCompleted)
	}
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
	if h.Table(8).NumRows() == 0 {
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

func TestNodeWearMatchesCollectedStats(t *testing.T) {
	w := &trace.NodeWear{}
	res := runTraced(t, w)
	for _, n := range res.Nodes {
		if got := w.Operations(n.Node); got != n.Operations {
			t.Errorf("node %d: observer counted %d ops, stats say %d", n.Node, got, n.Operations)
		}
		if got := w.Relays(n.Node); got != n.PacketsRelayed {
			t.Errorf("node %d: observer counted %d relays, stats say %d", n.Node, got, n.PacketsRelayed)
		}
		if _, died := w.DiedAt(n.Node); died != n.Dead {
			t.Errorf("node %d: observer death %v, stats say %v", n.Node, died, n.Dead)
		}
	}
}
