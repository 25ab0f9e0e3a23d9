package trace

import (
	"repro/internal/faults"
	"repro/internal/sim"
)

// WireEvent is the flattened, machine-readable progress record internal/serve
// streams to clients as NDJSON. One struct covers every event kind — the Type
// tag says which of the optional fields are meaningful — so a line-oriented
// client can decode every line into the same shape and switch on "type".
//
// The encoding is part of the service wire contract: fields are only ever
// added, never renamed or repurposed.
type WireEvent struct {
	// Type discriminates the record: "frame", "node_died", "fault_injected",
	// "fault_recovered", "failover" or "finished".
	Type string `json:"type"`
	// Now is the simulated cycle; Frame the TDMA frame index.
	Now   int64 `json:"now"`
	Frame int64 `json:"frame"`

	// Frame-summary fields (Type == "frame").
	AliveNodes   int  `json:"alive_nodes,omitempty"`
	JobsInFlight int  `json:"jobs_in_flight,omitempty"`
	Recomputed   bool `json:"recomputed,omitempty"`

	// Node and fault fields ("node_died", "fault_injected", "fault_recovered").
	Node int    `json:"node,omitempty"`
	Kind string `json:"kind,omitempty"`
	From int    `json:"from,omitempty"`
	To   int    `json:"to,omitempty"`
	// Region is the controller region of a region fault ("region-down",
	// "region-up"), nil otherwise. It is a pointer so region 0 is still
	// encoded.
	Region *int `json:"region,omitempty"`

	// Failover fields (Type == "failover"): From/To above are the regions.
	Nodes int `json:"nodes,omitempty"`

	// Finish fields (Type == "finished").
	Reason string `json:"reason,omitempty"`
}

// Wire is a sim.Observer that forwards a sampled, flattened subset of the
// event stream to a sink — the bridge between the engine's synchronous
// observer hooks and internal/serve's NDJSON progress stream. It forwards
// the low-rate structural events (node deaths, faults, failovers, the finish)
// verbatim and thins the per-frame heartbeat to every 16th frame
// (wireFrameEvery), so a long run streams progress without drowning the
// client in frame records.
//
// The sink is called synchronously from the simulation goroutine; a sink that
// blocks (a slow client) backpressures the simulation rather than buffering
// unboundedly, which is the behaviour a progress stream wants.
type Wire struct {
	sim.BaseObserver
	// Sink receives each flattened event. Must be non-nil.
	Sink func(WireEvent)
}

// wireFrameEvery is Wire's frame-heartbeat sampling interval: frames where
// Frame%wireFrameEvery != 0 are dropped (deaths, faults and the finish are
// never dropped).
const wireFrameEvery = 16

// FrameProcessed implements sim.Observer.
func (w *Wire) FrameProcessed(e sim.FrameEvent) {
	if e.Frame%wireFrameEvery != 0 {
		return
	}
	w.Sink(WireEvent{
		Type: "frame", Now: e.Now, Frame: e.Frame,
		AliveNodes: e.AliveNodes, JobsInFlight: e.JobsInFlight, Recomputed: e.Recomputed,
	})
}

// NodeDied implements sim.Observer.
func (w *Wire) NodeDied(e sim.NodeEvent) {
	w.Sink(WireEvent{Type: "node_died", Now: e.Now, Node: int(e.Node)})
}

// FaultInjected implements sim.Observer.
func (w *Wire) FaultInjected(e sim.FaultEvent) { w.fault("fault_injected", e) }

// FaultRecovered implements sim.Observer.
func (w *Wire) FaultRecovered(e sim.FaultEvent) { w.fault("fault_recovered", e) }

func (w *Wire) fault(typ string, e sim.FaultEvent) {
	ev := WireEvent{Type: typ, Now: e.Now, Frame: e.Frame, Kind: e.Kind.String()}
	switch {
	case e.Kind == faults.RegionDown || e.Kind == faults.RegionUp:
		region := e.Shard
		ev.Region = &region
	case e.To != e.From: // link fault: the undirected pair
		ev.From, ev.To = int(e.From), int(e.To)
	default:
		ev.Node = int(e.Node)
	}
	w.Sink(ev)
}

// RegionFailedOver implements sim.Observer.
func (w *Wire) RegionFailedOver(e sim.FailoverEvent) {
	w.Sink(WireEvent{
		Type: "failover", Now: e.Now, Frame: e.Frame,
		From: e.From, To: e.To, Nodes: e.Nodes,
	})
}

// RunFinished implements sim.Observer.
func (w *Wire) RunFinished(e sim.FinishEvent) {
	w.Sink(WireEvent{
		Type: "finished", Now: e.Now, Frame: e.Frame,
		Reason: string(e.Reason), JobsInFlight: e.JobsInFlight,
	})
}
