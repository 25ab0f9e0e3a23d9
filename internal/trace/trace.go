// Package trace provides composable sim.Observer implementations that turn
// the simulator's event stream into data sim.Result does not already hold:
// the per-frame Timeline, the job LatencyHistogram, the fault-window
// Degradation split, the Spans flight recorder, the Wire progress stream and
// the EngineMetrics phase histograms. Nothing here touches the engine's hot
// loop: every collector is an ordinary observer attached via
// sim.Config.Observers (or core.Strategy.Run.Observers and
// scenario.Spec.Simulate), and several can be attached to the same run.
//
// All collectors are deterministic: for a given configuration the rendered
// tables and CSV output are byte-for-byte reproducible, which is what lets
// parallel experiment sweeps carry traces without giving up the
// element-for-element determinism guarantees of internal/runner.
package trace

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Job latency histogram
// ---------------------------------------------------------------------------

// LatencyBucket is one bin of the job-latency histogram.
type LatencyBucket struct {
	// FromCycles (inclusive) and ToCycles (exclusive, except the last
	// bucket) delimit the bin.
	FromCycles int64
	ToCycles   int64
	Count      int
}

// LatencyHistogram records the injection-to-completion latency of every
// finished job. The zero value is ready to use.
type LatencyHistogram struct {
	sim.BaseObserver
	injected  map[int]int64
	latencies []int64
}

// JobInjected implements sim.Observer.
func (h *LatencyHistogram) JobInjected(e sim.JobEvent) {
	if h.injected == nil {
		h.injected = make(map[int]int64)
	}
	h.injected[e.Job] = e.Now
}

// JobCompleted implements sim.Observer.
func (h *LatencyHistogram) JobCompleted(e sim.JobEvent) {
	if t0, ok := h.injected[e.Job]; ok {
		h.latencies = append(h.latencies, e.Now-t0)
		delete(h.injected, e.Job)
	}
}

// JobLost implements sim.Observer: a lost job never completes, so its
// injection record is dropped rather than left to accumulate (long degraded
// runs lose thousands of jobs).
func (h *LatencyHistogram) JobLost(e sim.JobEvent) {
	delete(h.injected, e.Job)
}

// Mean returns the mean latency in cycles (0 with no observations).
func (h *LatencyHistogram) Mean() float64 {
	if len(h.latencies) == 0 {
		return 0
	}
	var sum int64
	for _, l := range h.latencies {
		sum += l
	}
	return float64(sum) / float64(len(h.latencies))
}

// Min and Max return the extreme latencies (0 with no observations).
func (h *LatencyHistogram) Min() int64 {
	if len(h.latencies) == 0 {
		return 0
	}
	min := h.latencies[0]
	for _, l := range h.latencies {
		if l < min {
			min = l
		}
	}
	return min
}

// Max returns the largest observed latency (0 with no observations).
func (h *LatencyHistogram) Max() int64 {
	if len(h.latencies) == 0 {
		return 0
	}
	max := h.latencies[0]
	for _, l := range h.latencies {
		if l > max {
			max = l
		}
	}
	return max
}

// Buckets bins the observations into the given number of equal-width
// buckets spanning [Min, Max].
func (h *LatencyHistogram) Buckets(n int) []LatencyBucket {
	if n < 1 {
		n = 1
	}
	if len(h.latencies) == 0 {
		return nil
	}
	lo, hi := h.Min(), h.Max()
	width := (hi - lo + int64(n)) / int64(n) // ceil so the max lands in the last bucket
	if width < 1 {
		width = 1
	}
	buckets := make([]LatencyBucket, n)
	for i := range buckets {
		buckets[i].FromCycles = lo + int64(i)*width
		buckets[i].ToCycles = lo + int64(i+1)*width
	}
	for _, l := range h.latencies {
		idx := int((l - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		buckets[idx].Count++
	}
	return buckets
}

// Table renders the histogram with the given bucket count.
func (h *LatencyHistogram) Table(buckets int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Job latency histogram (%d jobs, mean %.0f cycles)", len(h.latencies), h.Mean()),
		"latency [cycles]", "jobs")
	for _, b := range h.Buckets(buckets) {
		t.AddRow(fmt.Sprintf("%d..%d", b.FromCycles, b.ToCycles), b.Count)
	}
	return t
}

// ---------------------------------------------------------------------------
// Timeline: the per-frame CSV behind `etsim -trace`
// ---------------------------------------------------------------------------

// TimelineRow is one frame of the per-frame job and battery time-series.
type TimelineRow struct {
	Frame           int64
	Now             int64
	JobsCompleted   int
	JobsLost        int
	JobsInFlight    int
	DeadNodes       int
	MeanRemainingPJ float64
	MinRemainingPJ  float64
	MeanFraction    float64
}

// Timeline records one row per TDMA frame: cumulative job and node-death
// counts plus the fleet's battery aggregate over the nodes that reported
// that frame. It is the deterministic CSV written by `etsim -trace <file>`.
// The zero value is ready to use.
type Timeline struct {
	sim.BaseObserver
	completed, lost, dead int

	// Battery reports of the frame in progress.
	sampled                          int
	frameSumPJ, frameSumFr, frameMin float64
	// Battery columns of the last frame any node reported in.
	meanPJ, minPJ, meanFr float64

	rows []TimelineRow
}

// JobCompleted implements sim.Observer.
func (t *Timeline) JobCompleted(sim.JobEvent) { t.completed++ }

// JobLost implements sim.Observer.
func (t *Timeline) JobLost(sim.JobEvent) { t.lost++ }

// NodeDied implements sim.Observer.
func (t *Timeline) NodeDied(sim.NodeEvent) { t.dead++ }

// BatterySampled implements sim.Observer.
func (t *Timeline) BatterySampled(e sim.BatteryEvent) {
	if t.sampled == 0 {
		t.frameSumPJ, t.frameSumFr, t.frameMin = 0, 0, e.RemainingPJ
	}
	t.sampled++
	t.frameSumPJ += e.RemainingPJ
	t.frameSumFr += e.Fraction
	if e.RemainingPJ < t.frameMin {
		t.frameMin = e.RemainingPJ
	}
}

// FrameProcessed implements sim.Observer: it closes the frame's battery
// aggregate, if any node reported, and appends the frame's row. A frame in
// which no node reported (the system died in the upload phase) carries the
// last reported battery values: stored energy cannot recover.
func (t *Timeline) FrameProcessed(e sim.FrameEvent) {
	if t.sampled > 0 {
		n := float64(t.sampled)
		t.meanPJ, t.minPJ, t.meanFr = t.frameSumPJ/n, t.frameMin, t.frameSumFr/n
		t.sampled = 0
	}
	t.addRow(e.Frame, e.Now, e.JobsInFlight)
}

// RunFinished implements sim.Observer: it closes the timeline with the true
// end-of-run state — jobs can complete or get lost between the last control
// frame and system death, and jobs still in flight at death stay stranded
// rather than vanishing from the series. Battery reports after the last
// closed frame are not folded in; the row carries the last frame's values.
func (t *Timeline) RunFinished(e sim.FinishEvent) { t.addRow(e.Frame, e.Now, e.JobsInFlight) }

func (t *Timeline) addRow(frame, now int64, inFlight int) {
	t.rows = append(t.rows, TimelineRow{
		Frame: frame, Now: now,
		JobsCompleted: t.completed, JobsLost: t.lost,
		JobsInFlight: inFlight, DeadNodes: t.dead,
		MeanRemainingPJ: t.meanPJ, MinRemainingPJ: t.minPJ, MeanFraction: t.meanFr,
	})
}

// Rows returns the recorded timeline in frame order, closed by the
// end-of-run row.
func (t *Timeline) Rows() []TimelineRow { return t.rows }

// Table renders the timeline as a stats table.
func (t *Timeline) Table() *stats.Table {
	tbl := stats.NewTable("",
		"frame", "cycle", "jobs_completed", "jobs_lost", "jobs_in_flight",
		"dead_nodes", "mean_battery_pj", "min_battery_pj", "mean_level_fraction")
	for _, r := range t.rows {
		tbl.AddRow(r.Frame, r.Now, r.JobsCompleted, r.JobsLost, r.JobsInFlight,
			r.DeadNodes, fmt.Sprintf("%.3f", r.MeanRemainingPJ),
			fmt.Sprintf("%.3f", r.MinRemainingPJ), fmt.Sprintf("%.4f", r.MeanFraction))
	}
	return tbl
}

// CSV renders the timeline as a CSV document (header + one row per frame).
func (t *Timeline) CSV() string { return t.Table().CSV() }
