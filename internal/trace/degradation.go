package trace

// Degradation: the graceful-degradation collector behind the fault-injection
// experiments. It watches the simulator's fault event stream (sim.Observer's
// FaultInjected / FaultRecovered hooks) and attributes job flow to degraded vs
// healthy time, yielding the two figures the robustness story is about that
// sim.Result does not already count:
//
//   - throughput under faults — jobs completed per frame while at least one
//     fault window (transient link outage, node crash, controller-region
//     kill) was open, relative to jobs completed per healthy frame;
//   - time-to-recover — frames from each fault's injection to its paired
//     recovery event.
//
// Fault, wear-break, failover and adoption totals are sim.Result's
// (FaultsInjected, FaultsRecovered, LinksBroken, RegionFailovers,
// PeakAdoptedNodes); this collector does not repeat them. Like every collector
// in this package it is an ordinary observer: attach it via
// sim.Config.Observers and read the aggregates after the run. All state is
// derived from the event stream alone, so the collector works identically on
// both control planes and adds nothing to the engine's hot loop.

import (
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
	// Wear breaks are permanent and open no window.
	openLinks   map[[2]topology.NodeID]int64 // canonical (min,max) -> injection frame
	openNodes   map[topology.NodeID]int64
	openRegions map[int]int64

	jobsDegraded int // jobs completed while >=1 fault window open
	jobsHealthy  int

	framesDegraded int64
	framesHealthy  int64

	// recovery observes frames-from-injection-to-recovery, one sample per
	// recovered fault (transient links, crashed nodes, killed regions).
	recovery stats.Summary
}

func (d *Degradation) init() {
	if d.openLinks == nil {
		d.openLinks = make(map[[2]topology.NodeID]int64)
		d.openNodes = make(map[topology.NodeID]int64)
		d.openRegions = make(map[int]int64)
	}
}

// degraded reports whether at least one fault window is currently open.
func (d *Degradation) degraded() bool { return d.OpenWindows() > 0 }

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if b < a {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// FaultInjected implements sim.Observer: it opens the fault's window.
func (d *Degradation) FaultInjected(e sim.FaultEvent) {
	d.init()
	switch e.Kind {
	case faults.LinkDown:
		d.openLinks[linkKey(e.From, e.To)] = e.Frame
	case faults.NodeCrash:
		d.openNodes[e.Node] = e.Frame
	case faults.RegionDown:
		d.openRegions[e.Shard] = e.Frame
	}
}

// FaultRecovered implements sim.Observer: it closes the matching window and
// records the observed time-to-recover.
func (d *Degradation) FaultRecovered(e sim.FaultEvent) {
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

// JobCompleted implements sim.Observer: completions are attributed to the
// fault state at completion time.
func (d *Degradation) JobCompleted(sim.JobEvent) {
	if d.degraded() {
		d.jobsDegraded++
	} else {
		d.jobsHealthy++
	}
}

// FrameProcessed implements sim.Observer: it advances the degraded-time
// clock by one frame.
func (d *Degradation) FrameProcessed(sim.FrameEvent) {
	if d.degraded() {
		d.framesDegraded++
	} else {
		d.framesHealthy++
	}
}

// JobsDegraded returns jobs completed while at least one fault window was
// open.
func (d *Degradation) JobsDegraded() int { return d.jobsDegraded }

// FramesDegraded returns the number of frames spent with at least one fault
// window open.
func (d *Degradation) FramesDegraded() int64 { return d.framesDegraded }

// Retention returns jobs completed per degraded frame over jobs completed per
// healthy frame: the fraction of its healthy delivery rate the system keeps
// while faults are open (0 when either state is unobserved or no job
// completed in healthy frames).
func (d *Degradation) Retention() float64 {
	if d.framesDegraded == 0 || d.framesHealthy == 0 || d.jobsHealthy == 0 {
		return 0
	}
	degraded := float64(d.jobsDegraded) / float64(d.framesDegraded)
	healthy := float64(d.jobsHealthy) / float64(d.framesHealthy)
	return degraded / healthy
}

// Recovery returns the time-to-recover aggregate (frames from injection to
// the paired recovery event; one sample per recovered fault).
func (d *Degradation) Recovery() *stats.Summary { return &d.recovery }

// OpenWindows returns the number of fault windows still open (faults whose
// recovery never arrived before the run ended).
func (d *Degradation) OpenWindows() int {
	return len(d.openLinks) + len(d.openNodes) + len(d.openRegions)
}
