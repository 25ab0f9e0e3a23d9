// Package sim is the Go re-implementation of et_sim, the cycle-accurate
// network simulator the paper develops for e-textile platforms (Sec 7). It
// combines all substrates — topology, application model, module mapping,
// battery models, transmission-line energies, the TDMA control mechanism and
// the EAR/SDR routing algorithms — and simulates encryption jobs flowing
// through the mesh until the target system dies, reporting the number of
// completed jobs and a full energy breakdown.
//
// The platform calibration is fixed, not configured: every run uses the
// paper's measured woven transmission line and 4x4 controller power (package
// energy, the power read by the control plane), the Sec 5.3 TDMA scheme
// (package tdma) and the constants below.
package sim

import (
	"fmt"

	"repro/internal/aes"
	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The data-path calibration of the paper's platform.
const (
	// computeCyclesPerOp is the latency of one act of computation.
	computeCyclesPerOp = 4
	// linkWidthBits is the parallel width of the data interconnects; one hop
	// takes ceil(PacketBits / linkWidthBits) cycles.
	linkWidthBits = 8
	// nodeBufferJobs is the number of jobs that may reside at a node at once
	// (being processed or waiting); additional arrivals block at their
	// current node, which is what makes deadlock possible under concurrent
	// load.
	nodeBufferJobs = 1
)

// Config describes one simulation run.
type Config struct {
	// Graph is the network topology (normally a 2D mesh). Jobs are injected
	// at node (1,1), the attachment point of the sensor/actuator block in
	// Fig 3a, or at the first node of a graph without one.
	Graph *topology.Graph
	// App is the target application (normally AES-128).
	App *app.Application
	// Mapping assigns application modules to nodes.
	Mapping *mapping.Mapping
	// Algorithm is the online routing algorithm run by the controller.
	Algorithm routing.Algorithm
	// NodeBattery constructs the battery attached to every node.
	NodeBattery battery.Factory
	// Controllers is the number of redundant controllers (>= 1): the whole
	// central pool for the centralized control plane, or per regional pool for
	// the sharded one.
	Controllers int
	// Control selects the control-plane architecture; the zero value is the
	// paper's centralized controller.
	Control controlplane.Config
	// ControllerBattery constructs controller batteries; nil models the
	// infinite-energy controller of Sec 7.1/7.2.
	ControllerBattery battery.Factory
	// Faults is the deterministic runtime fault schedule (transient link
	// faults, wear breaks, node crashes, controller-region kill windows). The
	// zero value disables fault injection entirely and reproduces the
	// fault-free engine byte for byte.
	Faults faults.Spec
	// BatteryLevels is the number of quantisation levels used when nodes
	// report their remaining capacity.
	BatteryLevels int
	// ConcurrentJobs is the number of jobs kept in flight simultaneously.
	// The paper's Fig 7 / Table 2 experiments use 1 (a new job is launched
	// only when the previous one completes).
	ConcurrentJobs int
	// MaxCycles stops the simulation even if the system has not died, as a
	// safety net; 0 means no limit.
	MaxCycles int64
	// Key, when non-nil, makes every job carry a real AES state through the
	// mesh: the block is encrypted by the distributed module pipeline and the
	// resulting ciphertext is verified against the reference cipher. Only
	// valid when App is an AES application built by app.AES.
	Key []byte
	// CollectNodeStats enables per-node statistics in the result.
	CollectNodeStats bool
	// Cancel, when non-nil, aborts the run at the next scheduling boundary
	// once the channel is closed: the simulator stops injecting work, finishes
	// with Reason DeathCancelled and returns the partial result. It is how
	// long-lived callers (the etserve daemon) stop a simulation whose client
	// has gone away; nil (the default) runs to system death as before.
	Cancel <-chan struct{}
	// Observers are attached to the simulator's event stream (see Observer).
	// They only receive events: the engine writes Result itself whether or
	// not any are attached; nil entries are ignored. Observers receive
	// events synchronously on the simulation goroutine and must not call
	// back into the Simulator.
	Observers []Observer
}

// Validate checks the configuration; it never modifies it.
func (c Config) Validate() error {
	if c.Graph == nil || c.Graph.NodeCount() == 0 {
		return fmt.Errorf("sim: configuration needs a non-empty graph")
	}
	if c.App == nil {
		return fmt.Errorf("sim: configuration needs an application")
	}
	if err := c.App.Validate(); err != nil {
		return err
	}
	if c.Mapping == nil {
		return fmt.Errorf("sim: configuration needs a module mapping")
	}
	if err := c.Mapping.Validate(c.App, c.Graph.NodeCount()); err != nil {
		return err
	}
	if c.Algorithm == nil {
		return fmt.Errorf("sim: configuration needs a routing algorithm")
	}
	if ear, ok := c.Algorithm.(routing.EAR); ok {
		if err := ear.Params.Validate(); err != nil {
			return err
		}
	}
	if c.NodeBattery == nil {
		return fmt.Errorf("sim: configuration needs a node battery factory")
	}
	if c.Controllers < 1 {
		return fmt.Errorf("sim: at least one controller is required, got %d", c.Controllers)
	}
	if err := c.Control.Validate(c.Graph.NodeCount()); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.Control.ShardCount()); err != nil {
		return err
	}
	if c.BatteryLevels < 2 {
		return fmt.Errorf("sim: battery reporting needs at least 2 levels, got %d", c.BatteryLevels)
	}
	if c.ConcurrentJobs < 1 {
		return fmt.Errorf("sim: at least one concurrent job is required")
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("sim: MaxCycles must be non-negative")
	}
	if c.Key != nil {
		if _, err := aes.KeySizeForBytes(len(c.Key)); err != nil {
			return err
		}
	}
	return nil
}

// source returns the node at which jobs are injected: node (1,1), the
// attachment point of the sensor/actuator block in Fig 3a, or the first node
// of a graph without one.
func source(g *topology.Graph) topology.NodeID {
	if id, ok := g.NodeAt(topology.Coord{X: 1, Y: 1}); ok {
		return id
	}
	return g.Nodes()[0].ID
}

// hopCycles returns the latency of one hop of a packetBits-bit packet.
func hopCycles(packetBits int) int64 {
	return int64((packetBits + linkWidthBits - 1) / linkWidthBits)
}
