package sim

import (
	"repro/internal/faults"
	"repro/internal/topology"
)

// Observer receives the simulator's event stream. Observers are outbound
// only: the engine writes Result itself, at the site that knows each value,
// and an observer (the composable ones in internal/trace, or user-supplied
// ones) sees the same transitions without feeding anything back.
//
// Hooks are invoked synchronously from the single simulation goroutine, in
// deterministic order; implementations must not retain the event structs'
// backing simulator state and must not call back into the Simulator.
//
// Embed BaseObserver to implement only the hooks you care about.
type Observer interface {
	// JobInjected fires when a new job enters the system.
	JobInjected(e JobEvent)
	// JobCompleted fires when a job finishes its last operation.
	JobCompleted(e JobEvent)
	// JobLost fires when a job is abandoned because its node died.
	JobLost(e JobEvent)
	// NodeDied fires when a node's battery reaches its cutoff condition.
	NodeDied(e NodeEvent)
	// BatterySampled fires once per alive node per TDMA frame, when the node
	// reports its quantised battery level during its upload slot.
	BatterySampled(e BatteryEvent)
	// FaultInjected fires when the fault schedule takes a link, node or
	// controller region down at a frame boundary.
	FaultInjected(e FaultEvent)
	// FaultRecovered fires when a previously injected fault heals (the link
	// comes back, the node restores, the kill window closes).
	FaultRecovered(e FaultEvent)
	// RegionFailedOver fires when the sharded control plane hands a block of
	// nodes to a different serving region (in either direction: adoption when
	// a region goes fault-down, hand-back when it returns).
	RegionFailedOver(e FailoverEvent)
	// FrameProcessed fires at the end of every TDMA control frame, including
	// a partial frame the system died in.
	FrameProcessed(e FrameEvent)
	// RunFinished fires exactly once, strictly after every other event, when
	// the simulation terminates.
	RunFinished(e FinishEvent)
}

// JobEvent describes a job lifecycle transition.
type JobEvent struct {
	// Now is the simulated cycle at which the event fired.
	Now int64
	// Job is the injection-order job identifier.
	Job int
}

// NodeEvent describes a node death.
type NodeEvent struct {
	Now  int64
	Node topology.NodeID
}

// BatteryEvent is one node's battery report during a TDMA upload slot.
type BatteryEvent struct {
	Now   int64
	Frame int64
	Node  topology.NodeID
	// Level is the quantised level 0..Levels-1 reported to the controller.
	Level int
	// Levels is the quantisation level count.
	Levels int
	// RemainingPJ is the energy still stored in the battery.
	RemainingPJ float64
	// Fraction is the battery's own usable-charge estimate in [0,1].
	Fraction float64
}

// FaultEvent describes one fault transition applied at a frame boundary.
// Link events carry From/To (the undirected pair, From < To), node events
// carry Node, region events carry Shard.
type FaultEvent struct {
	Now   int64
	Frame int64
	// Kind is the transition (faults.LinkDown, faults.NodeCrash, ...).
	Kind faults.Kind
	From topology.NodeID
	To   topology.NodeID
	Node topology.NodeID
	// Shard is the controller region for region events.
	Shard int
	// RecoverAt is the frame the matching recovery is scheduled for
	// (injections only; 0 = permanent).
	RecoverAt int64
}

// FailoverEvent describes one block of nodes changing serving region under
// the sharded control plane.
type FailoverEvent struct {
	Now   int64
	Frame int64
	// From and To are the previous and new serving regions; Home is the
	// block's home region (To == Home when the block is handed back).
	From int
	To   int
	Home int
	// Nodes is the number of nodes in the block.
	Nodes int
}

// FrameEvent summarises one completed TDMA control frame.
type FrameEvent struct {
	Now   int64
	Frame int64
	// Recomputed is true when any controller re-ran the routing algorithm.
	Recomputed bool
	// AliveNodes is the number of living nodes after the upload phase.
	AliveNodes int
	// JobsInFlight is the number of active jobs at frame end.
	JobsInFlight int
}

// FinishEvent describes the end of a run.
type FinishEvent struct {
	Now    int64
	Frame  int64
	Reason DeathReason
	// JobsInFlight is the number of jobs still active (stranded) at system
	// death.
	JobsInFlight int
}

// BaseObserver is a no-op Observer intended for embedding, so concrete
// observers only implement the hooks they need.
type BaseObserver struct{}

// JobInjected implements Observer.
func (BaseObserver) JobInjected(JobEvent) {}

// JobCompleted implements Observer.
func (BaseObserver) JobCompleted(JobEvent) {}

// JobLost implements Observer.
func (BaseObserver) JobLost(JobEvent) {}

// NodeDied implements Observer.
func (BaseObserver) NodeDied(NodeEvent) {}

// BatterySampled implements Observer.
func (BaseObserver) BatterySampled(BatteryEvent) {}

// FaultInjected implements Observer.
func (BaseObserver) FaultInjected(FaultEvent) {}

// FaultRecovered implements Observer.
func (BaseObserver) FaultRecovered(FaultEvent) {}

// RegionFailedOver implements Observer.
func (BaseObserver) RegionFailedOver(FailoverEvent) {}

// FrameProcessed implements Observer.
func (BaseObserver) FrameProcessed(FrameEvent) {}

// RunFinished implements Observer.
func (BaseObserver) RunFinished(FinishEvent) {}

// --- event emission -------------------------------------------------------
//
// Each emit method forwards one event to the attached observers. With none
// attached the range loops are over nil slices, so an unobserved run pays
// nothing for the stream.

func (s *Simulator) emitJobInjected(e JobEvent) {
	for _, o := range s.observers {
		o.JobInjected(e)
	}
}

func (s *Simulator) emitJobCompleted(e JobEvent) {
	for _, o := range s.observers {
		o.JobCompleted(e)
	}
}

func (s *Simulator) emitJobLost(e JobEvent) {
	for _, o := range s.observers {
		o.JobLost(e)
	}
}

func (s *Simulator) emitNodeDied(e NodeEvent) {
	for _, o := range s.observers {
		o.NodeDied(e)
	}
}

func (s *Simulator) emitBatterySampled(e BatteryEvent) {
	for _, o := range s.observers {
		o.BatterySampled(e)
	}
}

func (s *Simulator) emitFaultInjected(e FaultEvent) {
	for _, o := range s.observers {
		o.FaultInjected(e)
	}
}

func (s *Simulator) emitFaultRecovered(e FaultEvent) {
	for _, o := range s.observers {
		o.FaultRecovered(e)
	}
}

func (s *Simulator) emitRegionFailedOver(e FailoverEvent) {
	for _, o := range s.observers {
		o.RegionFailedOver(e)
	}
}

func (s *Simulator) emitFrameProcessed(e FrameEvent) {
	for _, o := range s.observers {
		o.FrameProcessed(e)
	}
}

func (s *Simulator) emitRunFinished(e FinishEvent) {
	for _, o := range s.observers {
		o.RunFinished(e)
	}
}
