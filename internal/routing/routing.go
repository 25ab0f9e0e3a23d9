// Package routing implements the two online routing algorithms compared in
// the paper — the energy-aware routing algorithm (EAR) and its
// shortest-distance counterpart (SDR) — together with the three phases both
// share (Sec 6):
//
//	Phase 1: build the directed edge-weight matrix. SDR weighs an edge by its
//	         physical length only; EAR additionally multiplies the length by
//	         an exponential function of the destination node's reported
//	         battery level, steering traffic away from depleted nodes.
//	Phase 2: run an all-pairs shortest-path computation (a Floyd–Warshall
//	         variant that also produces the successor matrix, Fig 5).
//	Phase 3: choose, for every node and every module, the destination
//	         duplicate with the smallest distance while avoiding next hops
//	         that are currently reported deadlocked (Fig 6), producing the
//	         routing tables downloaded to the nodes.
//
// The package is purely computational: it consumes a snapshot of the system
// state (alive flags, quantised battery levels, deadlock flags) as collected
// by the TDMA control mechanism and produces routing tables. Energy
// accounting and time live in the sim package.
//
// Because the controller re-runs all three phases whenever the reported
// state changes — nearly every TDMA frame under EAR — the package is built
// around dense, index-addressed storage (flat row-major matrices, slices
// indexed by NodeID/ModuleID) and a reusable DeltaWorkspace so that
// steady-state recomputation performs no heap allocations. See DESIGN.md, "Performance
// architecture".
package routing

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// Inf is the weight of a non-existent edge.
var Inf = math.Inf(1)

// NodeStatus is the per-node information reported to the central controller
// during the node's TDMA upload slot.
type NodeStatus struct {
	// Alive is false once the node's battery is depleted; dead nodes can
	// neither compute nor relay and are excluded from routing.
	Alive bool
	// BatteryLevel is the quantised remaining-capacity level NB(j), in
	// 0..Levels-1 (higher means more charge).
	BatteryLevel int
	// Deadlocked reports that a job has been stuck at this node longer than
	// the deadlock threshold; phase 3 will steer the node away from its
	// current next hop.
	Deadlocked bool
}

// SystemState is the snapshot the controller runs the routing algorithm on.
type SystemState struct {
	// Graph is the physical topology.
	Graph *topology.Graph
	// Status holds every node's last reported status, indexed by NodeID
	// (node IDs are dense and start at 0). Nodes beyond the end of the slice
	// are treated as dead.
	Status []NodeStatus
	// Levels is the number of quantisation levels used for BatteryLevel.
	Levels int
	// TopologyEpoch counts runtime mutations of Graph (links removed by
	// fault injection, links healed after a transient fault). The controller
	// treats an epoch change like any other reported-state change and
	// recomputes; the zero value — a topology that never changes mid-run —
	// reproduces the pre-fault-injection behaviour exactly.
	TopologyEpoch uint64
}

// StatusOf returns node id's reported status; out-of-range ids report the
// zero status (dead).
func (s *SystemState) StatusOf(id topology.NodeID) NodeStatus {
	if int(id) < 0 || int(id) >= len(s.Status) {
		return NodeStatus{}
	}
	return s.Status[id]
}

// Alive reports whether node id is alive in this snapshot.
func (s *SystemState) Alive(id topology.NodeID) bool { return s.StatusOf(id).Alive }

// Clone returns a deep copy of the snapshot.
func (s *SystemState) Clone() *SystemState {
	c := &SystemState{Graph: s.Graph, Levels: s.Levels, TopologyEpoch: s.TopologyEpoch, Status: make([]NodeStatus, len(s.Status))}
	copy(c.Status, s.Status)
	return c
}

// Matrix is a dense KxK weight or distance matrix stored as a flat row-major
// backing array for cache locality; element (i, j) lives at cells[i*n+j].
type Matrix struct {
	n     int
	cells []float64
}

// NewMatrix allocates a KxK matrix filled with Inf off-diagonal and 0 on the
// diagonal.
func NewMatrix(k int) Matrix {
	var m Matrix
	m.Reset(k)
	return m
}

// Reset re-initialises the matrix to KxK with Inf off-diagonal and 0 on the
// diagonal, reusing the backing array when its capacity allows.
func (m *Matrix) Reset(k int) {
	m.n = k
	need := k * k
	if cap(m.cells) < need {
		m.cells = make([]float64, need)
	}
	m.cells = m.cells[:need]
	for i := range m.cells {
		m.cells[i] = Inf
	}
	for i := 0; i < k; i++ {
		m.cells[i*k+i] = 0
	}
}

// Dim returns the matrix dimension.
func (m *Matrix) Dim() int { return m.n }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.cells[i*m.n+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.cells[i*m.n+j] = v }

// Row returns row i as a slice aliasing the backing array.
func (m *Matrix) Row(i int) []float64 { return m.cells[i*m.n : (i+1)*m.n] }

// Algorithm builds phase-1 edge weights from a system snapshot. SDR and EAR
// differ only in this phase; phases 2 and 3 are shared.
type Algorithm interface {
	// Name identifies the algorithm in experiment output ("SDR" or "EAR").
	Name() string
	// WeightsInto fills w with the directed edge-weight matrix W for the
	// snapshot, reusing w's backing storage.
	WeightsInto(w *Matrix, state *SystemState)
	// NeedsBatteryInfo reports whether the algorithm's weights depend on the
	// reported battery levels. The controller re-runs the routing algorithm
	// only when information it actually uses has changed.
	NeedsBatteryInfo() bool
}

// SDR is the shortest-distance routing algorithm: the weight of an existing
// edge is the physical length of the interconnect.
type SDR struct{}

// Name implements Algorithm.
func (SDR) Name() string { return "SDR" }

// NeedsBatteryInfo implements Algorithm: SDR ignores battery levels.
func (SDR) NeedsBatteryInfo() bool { return false }

// WeightsInto implements Algorithm.
func (SDR) WeightsInto(w *Matrix, state *SystemState) {
	w.Reset(state.Graph.NodeCount())
	for _, l := range state.Graph.Links() {
		if !state.Alive(l.From) || !state.Alive(l.To) {
			continue
		}
		w.Set(int(l.From), int(l.To), l.LengthCM)
	}
}

// EARParams tunes the energy-aware weighting function
// f(n) = Q^(Levels - 1 - n), which multiplies the physical length of an edge
// by an exponentially growing penalty as the destination node's battery
// level n decreases.
type EARParams struct {
	// Q is the base of the exponential penalty (Q > 0; the paper uses a
	// constant Q to "strengthen the impact of the battery information").
	Q float64
	// Levels is the number of battery quantisation levels N_B.
	Levels int
}

// DefaultEARParams returns the calibration used for the paper reproduction:
// eight battery levels and Q = 2.
func DefaultEARParams() EARParams { return EARParams{Q: 2, Levels: 8} }

// maxPenaltySpread bounds the ratio between the largest and the smallest
// EAR penalty, max(Q, 1/Q)^(Levels-1). Past it, a heavily penalised edge
// absorbs the lightly penalised lengths added to it in floating point (and
// as Q nears zero, penalised edges weigh nearly or exactly nothing), so
// distinct paths tie and the Floyd–Warshall tie-break can leave a cycle in
// the successor matrix, which the incremental repair's successor walk never
// leaves. At the bound the incremental and full passes were checked
// byte-identical for Q = 16 and 23.7 (8 levels) and Q = 2 (33 levels) on
// 8x8 to 12x12 meshes.
const maxPenaltySpread = 1 << 32

// Validate checks the parameters: Q must be finite and positive, there must
// be at least two levels, and the penalty spread max(Q, 1/Q)^(Levels-1) must
// not exceed 2^32.
func (p EARParams) Validate() error {
	if !(p.Q > 0) || math.IsInf(p.Q, 1) {
		return fmt.Errorf("routing: EAR Q must be finite and positive, got %g", p.Q)
	}
	if p.Levels < 2 {
		return fmt.Errorf("routing: EAR needs at least 2 battery levels, got %d", p.Levels)
	}
	if spread := math.Pow(max(p.Q, 1/p.Q), float64(p.Levels-1)); spread > maxPenaltySpread {
		return fmt.Errorf("routing: EAR Q %g over %d levels spreads penalties by %.3g, more than the 2^32 the routing repair stays exact for",
			p.Q, p.Levels, spread)
	}
	return nil
}

// Penalty returns f(level) for a battery level in 0..Levels-1; a level
// outside that range is clamped to it first.
func (p EARParams) Penalty(level int) float64 {
	return math.Pow(p.Q, float64(p.Levels-1-p.clamp(level)))
}

// clamp limits a reported battery level to 0..Levels-1.
func (p EARParams) clamp(level int) int {
	return min(max(level, 0), p.Levels-1)
}

// EAR is the energy-aware routing algorithm.
type EAR struct {
	Params EARParams
}

// NewEAR returns an EAR instance with the default parameters.
func NewEAR() EAR { return EAR{Params: DefaultEARParams()} }

// Name implements Algorithm.
func (EAR) Name() string { return "EAR" }

// NeedsBatteryInfo implements Algorithm: EAR weights edges by the reported
// battery level of the receiving node.
func (EAR) NeedsBatteryInfo() bool { return true }

// WeightsInto implements Algorithm. Each battery level's penalty is
// computed once per call rather than once per link: the first
// len(penalty) levels are memoized on the stack, and deeper levels call
// Penalty per link.
func (e EAR) WeightsInto(w *Matrix, state *SystemState) {
	w.Reset(state.Graph.NodeCount())
	var penalty [64]float64 // f(level), or 0 before its first use
	for _, l := range state.Graph.Links() {
		if !state.Alive(l.From) || !state.Alive(l.To) {
			continue
		}
		level := e.Params.clamp(state.StatusOf(l.To).BatteryLevel)
		var f float64
		if 0 <= level && level < len(penalty) {
			if penalty[level] == 0 {
				penalty[level] = e.Params.Penalty(level)
			}
			f = penalty[level]
		} else {
			f = e.Params.Penalty(level)
		}
		w.Set(int(l.From), int(l.To), f*l.LengthCM)
	}
}
