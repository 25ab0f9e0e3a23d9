// Package controlplane is the controller side of the TDMA control mechanism,
// extracted from the simulation engine so that alternative controller
// architectures are components instead of engine rewrites. A ControlPlane
// owns everything the paper's Sec 5.3/6 controller does between the upload
// and download phases of a frame: it adopts the reported system snapshot,
// decides whether the routing algorithm must re-run, produces the routing
// tables each node downloads, and accounts the controller-side energy and
// liveness (finite controller batteries, Sec 7.3).
//
// One implementation ships: Sharded partitions the mesh into contiguous
// regions, each owned by a regional controller with its own workspace,
// redundant-controller pool and finite batteries. A region recomputes only
// when the state it can see changed: its own shard's reports are fresh every
// frame, while the other regions' battery summaries arrive only every
// StalenessFrames frames. Individual regions can exhaust their batteries and
// die while the rest of the fabric keeps routing on the survivors' tables.
//
// The paper's single (optionally redundant) central controller is the
// one-region, exchange-every-frame configuration of that plane: one global
// snapshot, one recompute decision, one table set. New builds it for
// KindCentralized under the name "centralized", and an equivalence suite pins
// it to a transcription of the original in-engine controller logic.
//
// Determinism contract: a ControlPlane must be a pure function of the frame
// index and the reported state — no clocks, no randomness, no dependence on
// goroutine scheduling — so that every sweep built on top remains
// byte-identical at any worker count.
package controlplane

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/energy"
	"repro/internal/routing"
	"repro/internal/tdma"
	"repro/internal/topology"
)

// Kind names a control-plane implementation.
type Kind string

// The registered control-plane kinds.
const (
	// KindCentralized is the paper's single central controller (the default).
	KindCentralized Kind = "centralized"
	// KindSharded is the regional-controller control plane: contiguous mesh
	// shards, per-shard recompute, bounded-staleness summary exchange.
	KindSharded Kind = "sharded"
)

// KindNames lists the accepted control-plane names, for CLI error messages.
func KindNames() []string {
	return []string{string(KindCentralized), string(KindSharded)}
}

// ParseKind resolves a control-plane name; "" selects the centralized
// default. A typo lists the valid names.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", string(KindCentralized):
		return KindCentralized, nil
	case string(KindSharded):
		return KindSharded, nil
	default:
		return "", fmt.Errorf("controlplane: unknown control plane %q (want one of: %s)",
			name, strings.Join(KindNames(), ", "))
	}
}

// DefaultShards is the shard count used when a sharded configuration does not
// specify one.
const DefaultShards = 4

// RecomputeNames lists the accepted recompute-strategy names, for CLI error
// messages.
func RecomputeNames() []string {
	return []string{routing.RecomputeIncremental.String(), routing.RecomputeFull.String()}
}

// ParseRecompute resolves a recompute-strategy name; "" selects the
// incremental default. A typo lists the valid names.
func ParseRecompute(name string) (routing.RecomputeMode, error) {
	switch name {
	case "", routing.RecomputeIncremental.String():
		return routing.RecomputeIncremental, nil
	case routing.RecomputeFull.String():
		return routing.RecomputeFull, nil
	default:
		return 0, fmt.Errorf("controlplane: unknown recompute strategy %q (want one of: %s)",
			name, strings.Join(RecomputeNames(), ", "))
	}
}

// Config selects and parameterises a control-plane implementation. The zero
// value selects the centralized controller of the paper.
type Config struct {
	// Kind is the controller architecture ("" = KindCentralized).
	Kind Kind
	// Shards is the number of regional controllers (KindSharded only;
	// 0 = DefaultShards).
	Shards int
	// StalenessFrames is the period, in TDMA frames, at which regional
	// controllers exchange battery summaries about each other's shards
	// (KindSharded only; 0 = 1 = exchange every frame). Between exchanges a
	// region routes on a stale view of the rest of the fabric.
	StalenessFrames int
	// Recompute selects the phase-2 strategy: "" or "incremental" repairs
	// the shortest-path matrices from the dirty set with automatic full
	// fallback, "full" always reruns the complete Floyd–Warshall pass.
	// Both produce byte-identical tables; the knob exists as a baseline
	// for equivalence checks and scaling measurements.
	Recompute string
}

// ShardCount returns the number of regional controllers the configuration
// will build: 1 for the centralized plane, the (defaulted) shard count for the
// sharded one. Fault schedules are validated against it before any plane is
// constructed.
func (c Config) ShardCount() int {
	if c.Kind == KindSharded {
		if c.Shards == 0 {
			return DefaultShards
		}
		return c.Shards
	}
	return 1
}

// Validate checks the configuration against a k-node platform.
func (c Config) Validate(k int) error {
	_, err := c.validate(k)
	return err
}

// validate is Validate returning the parsed recompute strategy.
func (c Config) validate(k int) (routing.RecomputeMode, error) {
	if _, err := ParseKind(string(c.Kind)); err != nil {
		return 0, err
	}
	if c.Shards < 0 {
		return 0, fmt.Errorf("controlplane: shard count must be non-negative, got %d", c.Shards)
	}
	if c.StalenessFrames < 0 {
		return 0, fmt.Errorf("controlplane: staleness bound must be non-negative, got %d frames", c.StalenessFrames)
	}
	mode, err := ParseRecompute(c.Recompute)
	if err != nil {
		return 0, err
	}
	switch c.Kind {
	case "", KindCentralized:
		if c.Shards > 1 {
			return 0, fmt.Errorf("controlplane: %d shards require the sharded control plane", c.Shards)
		}
		if c.StalenessFrames > 1 {
			return 0, fmt.Errorf("controlplane: a staleness bound of %d frames requires the sharded control plane", c.StalenessFrames)
		}
	case KindSharded:
		if shards := c.ShardCount(); k > 0 && shards > k {
			return 0, fmt.Errorf("controlplane: %d shards exceed the %d-node platform", shards, k)
		}
	}
	return mode, nil
}

// Deps carries everything a control plane needs from the platform: the
// topology and routing algorithm, the module duplicate lists, the TDMA
// calibration and the controller power/battery models.
type Deps struct {
	Graph        *topology.Graph
	Algorithm    routing.Algorithm
	Destinations map[app.ModuleID][]topology.NodeID
	TDMA         tdma.Params
	// Controllers is the number of redundant controllers per regional pool
	// (the whole pool for the one-region centralized plane).
	Controllers int
	// ControllerPower characterises each controller's dynamic/leakage power.
	ControllerPower energy.Controller
	// ControllerBattery builds controller batteries; nil models the
	// infinite-energy controller of Sec 7.1/7.2.
	ControllerBattery battery.Factory
	// Recompute is the phase-2 strategy every workspace runs with; the zero
	// value is the incremental repair (see routing.RecomputeMode).
	Recompute routing.RecomputeMode
}

// FrameReport is what a control plane hands back to the engine for one frame.
type FrameReport struct {
	// ControllerPJ is the energy the controller(s) consumed this frame
	// (bookkeeping plus any routing computation).
	ControllerPJ float64
	// DownloadPJ is the shared-medium energy spent downloading new tables.
	DownloadPJ float64
	// NewDeadlockReports counts deadlock notifications first uploaded this
	// frame, relative to the controllers' previously adopted state.
	NewDeadlockReports int
	// Recomputed is true when any controller re-ran the routing algorithm.
	Recomputed bool
	// ShardRecomputes is the number of regional recomputations this frame
	// (1 for a centralized recompute).
	ShardRecomputes int
	// Adopted is the number of nodes currently served by a region other than
	// their home region — orphans adopted after a fault killed their
	// controller (sharded plane only; always 0 while no region is
	// fault-down).
	Adopted int
	// Failovers lists the shard hand-offs that happened this frame: every
	// contiguous node block whose serving region changed, either because its
	// home region went down (adoption) or because it came back (return).
	// Nil on quiet frames.
	Failovers []Failover
	// ControllersDead is true when every controller battery is exhausted and
	// the control plane can never produce tables again — the Sec 7.3 system
	// death. Planes with infinite-energy controllers never set it.
	ControllersDead bool
}

// Failover describes one shard hand-off: the Nodes nodes homed in region From
// are served by region To from this frame on. From == home region, To == the
// adopter (or the home region itself when the block returns after a restore).
type Failover struct {
	// From is the region that previously served the block.
	From int
	// To is the region serving it from this frame on.
	To int
	// Home is the block's home region (the shard the nodes belong to).
	Home int
	// Nodes is the number of nodes handed over.
	Nodes int
}

// ControlPlane is the engine's interface to the controller architecture. The
// engine calls Frame once per TDMA control frame (after the upload phase) and
// routes every packet through the table accessors, which reflect the tables
// most recently downloaded to each node.
//
// Implementations must be deterministic: Frame must be a pure function of
// (frame index, reported state) and the plane's own prior decisions.
type ControlPlane interface {
	// Name identifies the configured kind ("centralized", "sharded").
	Name() string

	// Frame runs the controller side of one TDMA frame: adopt the snapshot,
	// decide recompute, rebuild tables, account energy and liveness.
	// aliveNodes is the number of nodes that survived the upload phase;
	// snapshot is the engine-owned status report, which the plane reads
	// during the call and never retains, so the engine may refill the same
	// buffer every frame.
	Frame(frame int64, aliveNodes int, snapshot *routing.SystemState) FrameReport

	// FaultRegion opens (down = true) or closes (down = false) a runtime
	// fault window on region `shard`, injected by the engine's fault
	// schedule. A fault-down region stops serving frames and its pool rests;
	// its nodes are handed to the nearest in-service region until the window
	// closes, or, when no region is in service (always, for the one-region
	// centralized plane), keep routing on its last-known-good tables.
	// Distinct from battery death, which is permanent and never fails over.
	FaultRegion(shard int, down bool)

	// Table returns the view of node's current routing table; ok is false
	// when the node has none (dead when its tables were built, or its region
	// never produced tables).
	Table(node topology.NodeID) (routing.Table, bool)
	// NextHop returns the next hop from `from` towards `dest`, or
	// topology.Invalid if unknown.
	NextHop(from, dest topology.NodeID) topology.NodeID
	// RouteTo returns the route downloaded to node for the given module.
	RouteTo(node topology.NodeID, id app.ModuleID) (routing.Route, bool)

	// Shards returns the number of regional controllers (1 for centralized).
	Shards() int
	// AliveShards returns how many regions can still serve frames.
	AliveShards() int
	// RecomputeCount returns how many times region `shard` re-ran the routing
	// algorithm so far.
	RecomputeCount(shard int) int
	// ShardConsumedPJ returns the controller energy drained by region
	// `shard`'s pool so far.
	ShardConsumedPJ(shard int) float64
	// RecomputeSplit reports how the plane's recomputations executed so
	// far: full Floyd–Warshall passes vs incremental dirty-set repairs
	// (summed across regions for the sharded plane).
	RecomputeSplit() (full, incremental int)
}

// New builds the control plane selected by cfg. Every kind is a Sharded
// plane; KindCentralized is its one-region configuration (ShardCount is 1 and
// the staleness bound defaults to one frame) and keeps the name
// "centralized".
func New(cfg Config, deps Deps) (ControlPlane, error) {
	mode, err := cfg.validate(deps.Graph.NodeCount())
	if err != nil {
		return nil, err
	}
	deps.Recompute = mode
	s, err := NewSharded(deps, cfg.ShardCount(), max(cfg.StalenessFrames, 1))
	if err != nil {
		return nil, err
	}
	if cfg.Kind != KindSharded {
		s.kind = KindCentralized
	}
	return s, nil
}
