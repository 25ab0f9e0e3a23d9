package trace

// Degradation: the graceful-degradation metrics collector behind the
// fault-injection experiments. It watches the simulator's fault event
// stream (sim.Observer's FaultInjected / FaultRecovered / RegionFailedOver
// hooks) and attributes job flow to degraded vs healthy time, yielding the
// three figures the robustness story is about:
//
//   - throughput under faults — jobs completed while at least one fault
//     window (transient link outage, node crash, controller-region kill)
//     was open, vs jobs completed in healthy frames;
//   - table staleness — how long the control plane served last-known-good
//     routing tables because a region (or the central controller) was down;
//   - time-to-recover — frames from each fault's injection to its paired
//     recovery event.
//
// Like every collector in this package it is an ordinary observer: attach it
// via sim.Config.Observers and read the aggregates after the run. All state
// is derived from the event stream alone, so the collector works identically
// on both control planes and adds nothing to the engine's hot loop.

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Degradation aggregates graceful-degradation metrics from the fault event
// stream. The zero value is ready to use.
type Degradation struct {
	sim.BaseObserver

	// Open fault windows, keyed by the identity the recovery event carries.
	// Wear breaks are permanent — they are tallied, never opened.
	openLinks   map[[2]topology.NodeID]int64 // canonical (min,max) -> injection frame
	openNodes   map[topology.NodeID]int64
	openRegions map[int]int64

	jobsDegraded int // jobs completed while >=1 fault window open
	jobsHealthy  int
	lostDegraded int // jobs lost while >=1 fault window open
	lostHealthy  int

	framesDegraded int64
	framesHealthy  int64

	// recovery observes frames-from-injection-to-recovery, one sample per
	// recovered fault (transient links, crashed nodes, killed regions).
	recovery stats.Summary
	// staleness observes, per frame, how many consecutive frames the control
	// plane has been serving stale (last-known-good) tables because a region
	// was down. Healthy frames observe 0, so Mean() is the expected staleness
	// age of a served table and Max() the worst case.
	staleness stats.Summary
	staleRun  int64

	failovers    int
	adoptedPeak  int
	linksBroken  int
	faultsSeen   int
	faultsHealed int
}

func (d *Degradation) init() {
	if d.openLinks == nil {
		d.openLinks = make(map[[2]topology.NodeID]int64)
		d.openNodes = make(map[topology.NodeID]int64)
		d.openRegions = make(map[int]int64)
	}
}

// degraded reports whether at least one fault window is currently open.
func (d *Degradation) degraded() bool {
	return len(d.openLinks)+len(d.openNodes)+len(d.openRegions) > 0
}

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if b < a {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// FaultInjected implements sim.Observer: it opens the fault's window (or
// tallies a permanent wear break).
func (d *Degradation) FaultInjected(e sim.FaultEvent) {
	d.init()
	d.faultsSeen++
	switch e.Kind {
	case faults.LinkDown:
		d.openLinks[linkKey(e.From, e.To)] = e.Frame
	case faults.LinkBreak:
		d.linksBroken++
	case faults.NodeCrash:
		d.openNodes[e.Node] = e.Frame
	case faults.RegionDown:
		d.openRegions[e.Shard] = e.Frame
	}
}

// FaultRecovered implements sim.Observer: it closes the matching window and
// records the observed time-to-recover.
func (d *Degradation) FaultRecovered(e sim.FaultEvent) {
	d.init()
	d.faultsHealed++
	var start int64
	var ok bool
	switch e.Kind {
	case faults.LinkUp:
		key := linkKey(e.From, e.To)
		start, ok = d.openLinks[key]
		delete(d.openLinks, key)
	case faults.NodeRestore:
		start, ok = d.openNodes[e.Node]
		delete(d.openNodes, e.Node)
	case faults.RegionUp:
		start, ok = d.openRegions[e.Shard]
		delete(d.openRegions, e.Shard)
	}
	if ok {
		d.recovery.Observe(float64(e.Frame - start))
	}
}

// RegionFailedOver implements sim.Observer.
func (d *Degradation) RegionFailedOver(sim.FailoverEvent) {
	d.failovers++
}

// JobCompleted implements sim.Observer: completions are attributed to the
// fault state at completion time.
func (d *Degradation) JobCompleted(sim.JobEvent) {
	if d.degraded() {
		d.jobsDegraded++
	} else {
		d.jobsHealthy++
	}
}

// JobLost implements sim.Observer.
func (d *Degradation) JobLost(sim.JobEvent) {
	if d.degraded() {
		d.lostDegraded++
	} else {
		d.lostHealthy++
	}
}

// FrameProcessed implements sim.Observer: it advances the degraded-time and
// staleness clocks by one frame.
func (d *Degradation) FrameProcessed(e sim.FrameEvent) {
	if d.degraded() {
		d.framesDegraded++
	} else {
		d.framesHealthy++
	}
	if len(d.openRegions) > 0 {
		d.staleRun++
	} else {
		d.staleRun = 0
	}
	d.staleness.Observe(float64(d.staleRun))
	if e.AdoptedNodes > d.adoptedPeak {
		d.adoptedPeak = e.AdoptedNodes
	}
}

// JobsDegraded returns jobs completed while at least one fault window was
// open.
func (d *Degradation) JobsDegraded() int { return d.jobsDegraded }

// FramesDegraded and FramesHealthy return the frame counts spent in each
// state.
func (d *Degradation) FramesDegraded() int64 { return d.framesDegraded }
func (d *Degradation) FramesHealthy() int64  { return d.framesHealthy }

// DegradedThroughput and HealthyThroughput return jobs completed per frame
// in each state (0 when the state never occurred). Their ratio is the
// headline graceful-degradation figure: how much of its healthy delivery
// rate the system keeps while faults are open.
func (d *Degradation) DegradedThroughput() float64 {
	if d.framesDegraded == 0 {
		return 0
	}
	return float64(d.jobsDegraded) / float64(d.framesDegraded)
}

// HealthyThroughput returns jobs completed per healthy frame.
func (d *Degradation) HealthyThroughput() float64 {
	if d.framesHealthy == 0 {
		return 0
	}
	return float64(d.jobsHealthy) / float64(d.framesHealthy)
}

// Retention returns DegradedThroughput / HealthyThroughput — the fraction of
// healthy delivery rate retained under faults (0 when either state is
// unobserved).
func (d *Degradation) Retention() float64 {
	h := d.HealthyThroughput()
	if h == 0 {
		return 0
	}
	return d.DegradedThroughput() / h
}

// Recovery returns the time-to-recover aggregate (frames from injection to
// the paired recovery event; one sample per recovered fault).
func (d *Degradation) Recovery() *stats.Summary { return &d.recovery }

// Staleness returns the per-frame table-staleness aggregate: each frame
// observes how many consecutive frames the control plane has been serving
// last-known-good tables (0 in healthy frames).
func (d *Degradation) Staleness() *stats.Summary { return &d.staleness }

// Failovers returns the number of region-failover adoptions observed.
func (d *Degradation) Failovers() int { return d.failovers }

// LinksBroken returns the number of permanent wear breaks observed.
func (d *Degradation) LinksBroken() int { return d.linksBroken }

// PeakAdoptedNodes returns the largest per-frame adopted-node gauge seen.
func (d *Degradation) PeakAdoptedNodes() int { return d.adoptedPeak }

// OpenWindows returns the number of fault windows still open (faults whose
// recovery never arrived before the run ended).
func (d *Degradation) OpenWindows() int {
	return len(d.openLinks) + len(d.openNodes) + len(d.openRegions)
}

// Table renders the collected degradation metrics.
func (d *Degradation) Table() *stats.Table {
	t := stats.NewTable("Graceful degradation", "metric", "value")
	t.AddRow("faults injected / recovered", fmt.Sprintf("%d/%d", d.faultsSeen, d.faultsHealed))
	t.AddRow("links broken by wear", d.linksBroken)
	t.AddRow("frames degraded / healthy", fmt.Sprintf("%d/%d", d.framesDegraded, d.framesHealthy))
	t.AddRow("jobs during faults", d.jobsDegraded)
	t.AddRow("jobs while healthy", d.jobsHealthy)
	t.AddRow("jobs lost during faults", d.lostDegraded)
	t.AddRow("degraded throughput [jobs/frame]", fmt.Sprintf("%.4f", d.DegradedThroughput()))
	t.AddRow("healthy throughput [jobs/frame]", fmt.Sprintf("%.4f", d.HealthyThroughput()))
	t.AddRow("throughput retention", fmt.Sprintf("%.3f", d.Retention()))
	if d.recovery.Count() > 0 {
		t.AddRow("time to recover [frames]", fmt.Sprintf("mean %.1f max %.0f", d.recovery.Mean(), d.recovery.Max()))
	}
	if d.staleness.Max() > 0 {
		t.AddRow("table staleness [frames]", fmt.Sprintf("mean %.2f max %.0f", d.staleness.Mean(), d.staleness.Max()))
	}
	if d.failovers > 0 {
		t.AddRow("region failovers", d.failovers)
		t.AddRow("peak adopted nodes", d.adoptedPeak)
	}
	if open := d.OpenWindows(); open > 0 {
		t.AddRow("windows still open at death", open)
	}
	return t
}
