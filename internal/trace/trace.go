// Package trace provides composable sim.Observer implementations that turn
// the simulator's event stream into time-series and distribution data,
// rendered through internal/stats. Nothing here touches the engine's hot
// loop: every collector is an ordinary observer attached via
// sim.Config.Observers (or core.Strategy.Observers and scenario.Spec.Simulate),
// and several can be attached to the same run.
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
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// Battery time-series
// ---------------------------------------------------------------------------

// BatteryFrame is the aggregate battery state reported during one TDMA frame.
type BatteryFrame struct {
	Frame int64
	Now   int64
	// Sampled is the number of living nodes that reported this frame.
	Sampled int
	// MeanRemainingPJ and MinRemainingPJ aggregate the energy still stored
	// in the reporting nodes' batteries.
	MeanRemainingPJ float64
	MinRemainingPJ  float64
	// MeanFraction is the mean usable-charge estimate in [0,1].
	MeanFraction float64
	// MinLevel is the lowest quantised level any node reported.
	MinLevel int
}

// BatterySeries records one aggregate battery sample per TDMA frame — the
// fleet-wide discharge curve of a run. The zero value is ready to use.
type BatterySeries struct {
	sim.BaseObserver
	frames []BatteryFrame
	cur    BatteryFrame
	sumPJ  float64
	sumFr  float64
}

// BatterySampled implements sim.Observer.
func (b *BatterySeries) BatterySampled(e sim.BatteryEvent) {
	if b.cur.Sampled == 0 {
		b.cur.Frame, b.cur.Now = e.Frame, e.Now
		b.cur.MinRemainingPJ = e.RemainingPJ
		b.cur.MinLevel = e.Level
		b.sumPJ, b.sumFr = 0, 0
	}
	b.cur.Sampled++
	b.sumPJ += e.RemainingPJ
	b.sumFr += e.Fraction
	if e.RemainingPJ < b.cur.MinRemainingPJ {
		b.cur.MinRemainingPJ = e.RemainingPJ
	}
	if e.Level < b.cur.MinLevel {
		b.cur.MinLevel = e.Level
	}
}

// FrameProcessed implements sim.Observer: it closes the frame's aggregate.
// Frames during which no node reported (the system died in the upload phase)
// produce no sample.
func (b *BatterySeries) FrameProcessed(sim.FrameEvent) {
	if b.cur.Sampled == 0 {
		return
	}
	n := float64(b.cur.Sampled)
	b.cur.MeanRemainingPJ = b.sumPJ / n
	b.cur.MeanFraction = b.sumFr / n
	b.frames = append(b.frames, b.cur)
	b.cur = BatteryFrame{}
}

// Frames returns the recorded per-frame aggregates in frame order.
func (b *BatterySeries) Frames() []BatteryFrame { return b.frames }

// Table renders the series as a stats table.
func (b *BatterySeries) Table() *stats.Table {
	t := stats.NewTable("Battery time-series (per TDMA frame)",
		"frame", "cycle", "nodes reporting", "mean remaining [pJ]", "min remaining [pJ]", "mean level fraction", "min level")
	for _, f := range b.frames {
		t.AddRow(f.Frame, f.Now, f.Sampled,
			fmt.Sprintf("%.1f", f.MeanRemainingPJ), fmt.Sprintf("%.1f", f.MinRemainingPJ),
			fmt.Sprintf("%.3f", f.MeanFraction), f.MinLevel)
	}
	return t
}

// Series returns the mean-remaining-energy curve as a stats series (x =
// frame, y = mean remaining pJ), ready for charting.
func (b *BatterySeries) Series() *stats.Series {
	s := &stats.Series{Name: "mean remaining [pJ]"}
	for _, f := range b.frames {
		s.Add(float64(f.Frame), f.MeanRemainingPJ)
	}
	return s
}

// ---------------------------------------------------------------------------
// Per-frame throughput
// ---------------------------------------------------------------------------

// ThroughputFrame is the job-flow state at the end of one TDMA frame.
type ThroughputFrame struct {
	Frame int64
	Now   int64
	// Completed and Lost are cumulative counts at frame end.
	Completed int
	Lost      int
	// CompletedDelta is the number of jobs that finished during this frame.
	CompletedDelta int
	// JobsInFlight is the number of active jobs at frame end.
	JobsInFlight int
}

// Throughput records one job-flow sample per TDMA frame. The zero value is
// ready to use.
type Throughput struct {
	sim.BaseObserver
	completed int
	lost      int
	frames    []ThroughputFrame
}

// JobCompleted implements sim.Observer.
func (t *Throughput) JobCompleted(sim.JobEvent) { t.completed++ }

// JobLost implements sim.Observer.
func (t *Throughput) JobLost(sim.JobEvent) { t.lost++ }

// FrameProcessed implements sim.Observer.
func (t *Throughput) FrameProcessed(e sim.FrameEvent) {
	delta := t.completed
	if n := len(t.frames); n > 0 {
		delta -= t.frames[n-1].Completed
	}
	t.frames = append(t.frames, ThroughputFrame{
		Frame: e.Frame, Now: e.Now,
		Completed: t.completed, Lost: t.lost,
		CompletedDelta: delta, JobsInFlight: e.JobsInFlight,
	})
}

// RunFinished implements sim.Observer: jobs can complete or get lost between
// the last control frame and system death, so the series closes with one
// final sample carrying the true end-of-run counts.
func (t *Throughput) RunFinished(e sim.FinishEvent) {
	delta := t.completed
	if n := len(t.frames); n > 0 {
		delta -= t.frames[n-1].Completed
	}
	t.frames = append(t.frames, ThroughputFrame{
		Frame: e.Frame, Now: e.Now,
		Completed: t.completed, Lost: t.lost, CompletedDelta: delta,
	})
}

// Frames returns the recorded per-frame samples in frame order, closed by
// the end-of-run sample.
func (t *Throughput) Frames() []ThroughputFrame { return t.frames }

// Completed returns the cumulative completed-job count seen so far.
func (t *Throughput) Completed() int { return t.completed }

// Table renders the throughput series as a stats table.
func (t *Throughput) Table() *stats.Table {
	tbl := stats.NewTable("Per-frame throughput",
		"frame", "cycle", "jobs completed", "completed this frame", "jobs lost", "in flight")
	for _, f := range t.frames {
		tbl.AddRow(f.Frame, f.Now, f.Completed, f.CompletedDelta, f.Lost, f.JobsInFlight)
	}
	return tbl
}

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

// Latencies returns every observed latency in completion order.
func (h *LatencyHistogram) Latencies() []int64 { return h.latencies }

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
// Timeline: the combined per-frame CSV behind `etsim -trace`
// ---------------------------------------------------------------------------

// TimelineRow is one frame of the combined battery/throughput time-series.
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

// Timeline merges the battery and throughput series into one row per TDMA
// frame — the deterministic CSV written by `etsim -trace <file>`. It is a
// composition of the two collectors above: the events are forwarded to an
// inner BatterySeries and Throughput, and each frame's row is assembled from
// their state. The zero value is ready to use.
type Timeline struct {
	sim.BaseObserver
	battery BatterySeries
	jobs    Throughput
	dead    int

	rows []TimelineRow
}

// JobCompleted implements sim.Observer.
func (t *Timeline) JobCompleted(e sim.JobEvent) { t.jobs.JobCompleted(e) }

// JobLost implements sim.Observer.
func (t *Timeline) JobLost(e sim.JobEvent) { t.jobs.JobLost(e) }

// NodeDied implements sim.Observer.
func (t *Timeline) NodeDied(sim.NodeEvent) { t.dead++ }

// BatterySampled implements sim.Observer.
func (t *Timeline) BatterySampled(e sim.BatteryEvent) { t.battery.BatterySampled(e) }

// batteryColumns fills the row's battery columns from the latest closed
// battery frame, if any. Rows after the fleet's final report (a partial
// death frame, the end-of-run row) carry the last reported values: nodes
// report only during frames, and stored energy cannot recover afterwards.
func (t *Timeline) batteryColumns(row *TimelineRow) {
	frames := t.battery.Frames()
	if len(frames) == 0 {
		return
	}
	last := frames[len(frames)-1]
	row.MeanRemainingPJ = last.MeanRemainingPJ
	row.MinRemainingPJ = last.MinRemainingPJ
	row.MeanFraction = last.MeanFraction
}

// FrameProcessed implements sim.Observer: it closes one timeline row.
func (t *Timeline) FrameProcessed(e sim.FrameEvent) {
	t.battery.FrameProcessed(e)
	t.jobs.FrameProcessed(e)
	row := TimelineRow{
		Frame: e.Frame, Now: e.Now,
		JobsCompleted: t.jobs.completed, JobsLost: t.jobs.lost,
		JobsInFlight: e.JobsInFlight, DeadNodes: t.dead,
	}
	t.batteryColumns(&row)
	t.rows = append(t.rows, row)
}

// RunFinished implements sim.Observer: it closes the timeline with the true
// end-of-run state — jobs can complete or get lost between the last control
// frame and system death, and jobs still in flight at death stay stranded
// rather than vanishing from the series.
func (t *Timeline) RunFinished(e sim.FinishEvent) {
	t.jobs.RunFinished(e)
	row := TimelineRow{
		Frame: e.Frame, Now: e.Now,
		JobsCompleted: t.jobs.completed, JobsLost: t.jobs.lost,
		JobsInFlight: e.JobsInFlight, DeadNodes: t.dead,
	}
	t.batteryColumns(&row)
	t.rows = append(t.rows, row)
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

// ---------------------------------------------------------------------------
// Per-node wear
// ---------------------------------------------------------------------------

// NodeWear tallies per-node activity (operations, relays, deaths) from the
// event stream alone — the observer-side counterpart of
// Config.CollectNodeStats. The zero value is ready to use.
type NodeWear struct {
	sim.BaseObserver
	ops    map[topology.NodeID]int
	relays map[topology.NodeID]int
	died   map[topology.NodeID]int64 // death cycle
}

func (w *NodeWear) init() {
	if w.ops == nil {
		w.ops = make(map[topology.NodeID]int)
		w.relays = make(map[topology.NodeID]int)
		w.died = make(map[topology.NodeID]int64)
	}
}

// OperationStarted implements sim.Observer.
func (w *NodeWear) OperationStarted(e sim.OperationEvent) {
	w.init()
	w.ops[e.Node]++
}

// HopStarted implements sim.Observer.
func (w *NodeWear) HopStarted(e sim.HopEvent) {
	if e.Relayed {
		w.init()
		w.relays[e.From]++
	}
}

// NodeDied implements sim.Observer.
func (w *NodeWear) NodeDied(e sim.NodeEvent) {
	w.init()
	w.died[e.Node] = e.Now
}

// Operations returns the operation count tallied for a node.
func (w *NodeWear) Operations(id topology.NodeID) int { return w.ops[id] }

// Relays returns the relayed-packet count tallied for a node.
func (w *NodeWear) Relays(id topology.NodeID) int { return w.relays[id] }

// DiedAt returns the cycle at which a node died and whether it died at all.
func (w *NodeWear) DiedAt(id topology.NodeID) (int64, bool) {
	t, ok := w.died[id]
	return t, ok
}
