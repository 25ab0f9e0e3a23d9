package sim

import (
	"repro/internal/app"
	"repro/internal/faults"
	"repro/internal/topology"
)

// Observer receives the simulator's event stream. The engine itself keeps no
// metrics: every counter in Result is accumulated by the built-in result
// observer from exactly these events, so external observers (the composable
// ones in internal/trace, or user-supplied ones) see the same ground truth as
// the engine's own accounting, without touching the hot loop.
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
	// HopStarted fires when a packet begins a hop on a data link.
	HopStarted(e HopEvent)
	// OperationStarted fires when a node begins one act of computation.
	OperationStarted(e OperationEvent)
	// NodeDied fires when a node's battery reaches its cutoff condition.
	NodeDied(e NodeEvent)
	// EnergyAborted fires when a node browns out mid-operation: the energy
	// was drawn but produced no useful work.
	EnergyAborted(e EnergyEvent)
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

// PayloadOutcome reports the end-to-end AES verification of one completed
// job.
type PayloadOutcome int

// Possible payload outcomes of a completed job.
const (
	// PayloadNone means the job carried no payload (Config.Key was nil).
	PayloadNone PayloadOutcome = iota
	// PayloadVerified means the distributed ciphertext matched the
	// reference cipher.
	PayloadVerified
	// PayloadMismatch means the distributed ciphertext disagreed with the
	// reference cipher.
	PayloadMismatch
)

// JobEvent describes a job lifecycle transition.
type JobEvent struct {
	// Now is the simulated cycle at which the event fired.
	Now int64
	// Job is the injection-order job identifier.
	Job int
	// Node is where the event happened: the injection point, the node of
	// the final operation, or the node at which the job was stranded.
	Node topology.NodeID
	// Payload is the verification outcome (JobCompleted only).
	Payload PayloadOutcome
}

// HopEvent describes one packet hop on a data link.
type HopEvent struct {
	Now  int64
	Job  int
	From topology.NodeID
	To   topology.NodeID
	// EnergyPJ is the transmission energy drawn at the sender.
	EnergyPJ float64
	// Relayed is true when the sender forwarded a packet it did not
	// originate on this leg (hops beyond the first).
	Relayed bool
}

// OperationEvent describes one act of computation.
type OperationEvent struct {
	Now    int64
	Job    int
	Node   topology.NodeID
	Module app.ModuleID
	// OpIndex is the job's position in the application flow.
	OpIndex int
	// EnergyPJ is the computation energy drawn from the node's battery.
	EnergyPJ float64
}

// NodeEvent describes a node death.
type NodeEvent struct {
	Now  int64
	Node topology.NodeID
}

// EnergyEvent describes energy that was drawn but wasted (a brown-out).
type EnergyEvent struct {
	Now      int64
	Node     topology.NodeID
	EnergyPJ float64
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
	// UploadPJ is the node energy actually charged for status uploads this
	// frame (nodes that browned out mid-upload are excluded).
	UploadPJ float64
	// DownloadPJ is the shared-medium energy spent downloading new tables.
	DownloadPJ float64
	// ControllerPJ is the energy consumed by the controller itself.
	ControllerPJ float64
	// Recomputed is true when any controller re-ran the routing algorithm.
	Recomputed bool
	// ShardRecomputes is the number of regional recomputations this frame
	// (1 for a centralized recompute, 0..Shards under the sharded plane).
	ShardRecomputes int
	// NewDeadlockReports counts deadlock notifications first uploaded this
	// frame.
	NewDeadlockReports int
	// AliveNodes is the number of living nodes after the upload phase.
	AliveNodes int
	// AdoptedNodes is the number of nodes currently served by a region other
	// than their home region (sharded failover; always 0 otherwise).
	AdoptedNodes int
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

// HopStarted implements Observer.
func (BaseObserver) HopStarted(HopEvent) {}

// OperationStarted implements Observer.
func (BaseObserver) OperationStarted(OperationEvent) {}

// NodeDied implements Observer.
func (BaseObserver) NodeDied(NodeEvent) {}

// EnergyAborted implements Observer.
func (BaseObserver) EnergyAborted(EnergyEvent) {}

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

// resultObserver is the built-in default observer: it accumulates the event
// stream into the Result the engine previously mutated inline. It is always
// attached (directly, as a concrete field, so the common no-extra-observers
// case pays no interface dispatch on the hot paths).
type resultObserver struct {
	res *Result
}

var _ Observer = resultObserver{}

func (o resultObserver) JobInjected(JobEvent) {}

func (o resultObserver) JobCompleted(e JobEvent) {
	o.res.JobsCompleted++
	switch e.Payload {
	case PayloadVerified:
		o.res.PayloadJobsVerified++
	case PayloadMismatch:
		o.res.PayloadMismatches++
	}
}

func (o resultObserver) JobLost(JobEvent) { o.res.JobsLost++ }

func (o resultObserver) HopStarted(e HopEvent) { o.res.Energy.CommunicationPJ += e.EnergyPJ }

func (o resultObserver) OperationStarted(e OperationEvent) {
	o.res.Energy.ComputationPJ += e.EnergyPJ
}

func (o resultObserver) NodeDied(NodeEvent) { o.res.DeadNodes++ }

func (o resultObserver) EnergyAborted(e EnergyEvent) { o.res.Energy.AbortedPJ += e.EnergyPJ }

func (o resultObserver) BatterySampled(BatteryEvent) {}

func (o resultObserver) FaultInjected(e FaultEvent) {
	o.res.FaultsInjected++
	if e.Kind == faults.LinkBreak {
		o.res.LinksBroken++
	}
}

func (o resultObserver) FaultRecovered(FaultEvent) { o.res.FaultsRecovered++ }

func (o resultObserver) RegionFailedOver(FailoverEvent) { o.res.RegionFailovers++ }

func (o resultObserver) FrameProcessed(e FrameEvent) {
	o.res.Frames = e.Frame
	o.res.Energy.ControlUploadPJ += e.UploadPJ
	o.res.Energy.ControlDownloadPJ += e.DownloadPJ
	o.res.Energy.ControllerPJ += e.ControllerPJ
	o.res.DeadlockReports += e.NewDeadlockReports
	if e.AdoptedNodes > o.res.PeakAdoptedNodes {
		o.res.PeakAdoptedNodes = e.AdoptedNodes
	}
	if e.Recomputed {
		o.res.RoutingRecomputes++
	}
}

func (o resultObserver) RunFinished(e FinishEvent) {
	o.res.Reason = e.Reason
	o.res.LifetimeCycles = e.Now
	o.res.Frames = e.Frame
}

// --- event emission -------------------------------------------------------
//
// Each emit method forwards one event to the built-in accounting and then to
// the externally attached observers. With no external observers the range
// loops are over nil slices, so the hot loop costs exactly the inlined
// accounting it had before observers existed.

func (s *Simulator) emitJobInjected(e JobEvent) {
	s.acct.JobInjected(e)
	for _, o := range s.observers {
		o.JobInjected(e)
	}
}

func (s *Simulator) emitJobCompleted(e JobEvent) {
	s.acct.JobCompleted(e)
	for _, o := range s.observers {
		o.JobCompleted(e)
	}
}

func (s *Simulator) emitJobLost(e JobEvent) {
	s.acct.JobLost(e)
	for _, o := range s.observers {
		o.JobLost(e)
	}
}

func (s *Simulator) emitHopStarted(e HopEvent) {
	s.acct.HopStarted(e)
	for _, o := range s.observers {
		o.HopStarted(e)
	}
}

func (s *Simulator) emitOperationStarted(e OperationEvent) {
	s.acct.OperationStarted(e)
	for _, o := range s.observers {
		o.OperationStarted(e)
	}
}

func (s *Simulator) emitNodeDied(e NodeEvent) {
	s.acct.NodeDied(e)
	for _, o := range s.observers {
		o.NodeDied(e)
	}
}

func (s *Simulator) emitEnergyAborted(e EnergyEvent) {
	s.acct.EnergyAborted(e)
	for _, o := range s.observers {
		o.EnergyAborted(e)
	}
}

func (s *Simulator) emitBatterySampled(e BatteryEvent) {
	for _, o := range s.observers {
		o.BatterySampled(e)
	}
}

func (s *Simulator) emitFaultInjected(e FaultEvent) {
	s.acct.FaultInjected(e)
	for _, o := range s.observers {
		o.FaultInjected(e)
	}
}

func (s *Simulator) emitFaultRecovered(e FaultEvent) {
	s.acct.FaultRecovered(e)
	for _, o := range s.observers {
		o.FaultRecovered(e)
	}
}

func (s *Simulator) emitRegionFailedOver(e FailoverEvent) {
	s.acct.RegionFailedOver(e)
	for _, o := range s.observers {
		o.RegionFailedOver(e)
	}
}

func (s *Simulator) emitFrameProcessed(e FrameEvent) {
	s.acct.FrameProcessed(e)
	for _, o := range s.observers {
		o.FrameProcessed(e)
	}
}

func (s *Simulator) emitRunFinished(e FinishEvent) {
	s.acct.RunFinished(e)
	for _, o := range s.observers {
		o.RunFinished(e)
	}
}
