package experiments

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// Big-mesh scaling: incremental dirty-set repair vs full Floyd–Warshall
// ---------------------------------------------------------------------------

// DefaultScalingSizes is the mesh-size axis of the scaling study. The largest
// points are far beyond the paper's 8x8 ceiling; they are tractable at all
// because the steady-state recompute is an incremental repair.
func DefaultScalingSizes() []int { return []int{8, 16, 32, 64} }

// DefaultScalingCrossings is the number of battery-level crossings measured
// per mesh size.
const DefaultScalingCrossings = 16

// scalingFullCapNodes bounds the always-full baseline: above this node count
// one full Floyd–Warshall pass per crossing is exactly the cost this study
// exists to avoid, so only the incremental path is timed (the repair's
// byte-identity is pinned separately, by the equivalence suite on meshes the
// baseline can afford).
const scalingFullCapNodes = 1024

// ScalingRow is one mesh size of the scaling study.
type ScalingRow struct {
	Mesh  int
	Nodes int
	// Crossings is the number of measured single-node battery-level
	// crossings (each changes one reported level, the dominant steady-state
	// recompute trigger).
	Crossings int
	// FullRan is true when the always-full baseline was measured; above
	// scalingFullCapNodes it is skipped and FullMS/Speedup/Identical are
	// meaningless.
	FullRan bool
	// FullMS and IncrementalMS are the mean wall-clock milliseconds per
	// crossing for the two strategies (the only non-deterministic columns).
	FullMS        float64
	IncrementalMS float64
	// Speedup is FullMS / IncrementalMS.
	Speedup float64
	// Repairs and Fallbacks split the incremental run's recomputes: crossings
	// repaired from the dirty set vs crossings that fell back to a full pass.
	Repairs   int
	Fallbacks int
	// DirtyFrac and AffectedFrac are the mean dirty-vertex fraction (of K)
	// and recomputed-pair fraction (of K²) across the repairs.
	DirtyFrac    float64
	AffectedFrac float64
	// Identical is true when every crossing's routing plan fingerprint
	// matched between the two strategies (only checked when FullRan).
	Identical bool
}

// Scaling measures the per-crossing recompute cost of the incremental
// dirty-set repair against the always-full Floyd–Warshall baseline, on
// meshes up to far beyond the paper's sizes. For every mesh size it replays
// the same deterministic trajectory of single-node battery-level crossings
// through both strategies in lockstep, times each recompute, and compares
// the resulting routing plans by fingerprint. Both workspaces are warmed
// with one untimed bootstrap computation first (the first computation is
// always a full pass; on the biggest meshes it is also the only full pass).
//
// Everything about the rows except the millisecond columns (and the speedup
// derived from them) is deterministic. The timings run serially, never
// through the worker pool, so one size's measurement cannot perturb
// another's.
func Scaling(sizes []int, crossings int) ([]ScalingRow, error) {
	if crossings < 1 {
		return nil, fmt.Errorf("experiments: scaling needs at least one crossing, got %d", crossings)
	}
	rows := make([]ScalingRow, 0, len(sizes))
	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: scaling mesh size must be at least 2, got %d", n)
		}
		row, err := scalingRow(n, crossings)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func scalingRow(n, crossings int) (ScalingRow, error) {
	mesh, err := topology.NewMesh(n, n, topology.DefaultSpacingCM)
	if err != nil {
		return ScalingRow{}, err
	}
	k := mesh.Graph.NodeCount()
	alg := routing.NewEAR()
	const levels = 8
	dests := map[app.ModuleID][]topology.NodeID{}
	for _, node := range mesh.Nodes() {
		m := app.ModuleID(int(node.ID)%3 + 1)
		dests[m] = append(dests[m], node.ID)
	}
	state := &routing.SystemState{Graph: mesh.Graph, Status: make([]routing.NodeStatus, k)}
	for i := range state.Status {
		state.Status[i] = routing.NodeStatus{Alive: true, BatteryLevel: levels - 1}
	}

	row := ScalingRow{Mesh: n, Nodes: k, Crossings: crossings, FullRan: k <= scalingFullCapNodes, Identical: true}

	incr := routing.NewDeltaWorkspace()
	full := routing.NewDeltaWorkspace()
	full.SetMode(routing.RecomputeFull)

	// Bootstrap: the first computation is always a full pass for both
	// strategies, so it says nothing about the steady state; warm both
	// workspaces on the initial state, untimed.
	var prevIncr, prevFull *routing.Tables
	prevIncr = incr.ComputeInto(alg, state, dests, nil).Tables
	if row.FullRan {
		prevFull = full.ComputeInto(alg, state, dests, nil).Tables
	}

	var incrNS, fullNS int64
	for c := 0; c < crossings; c++ {
		// One battery-level crossing: the dominant steady-state recompute
		// trigger is a single node's reported level stepping down. The
		// stride keeps successive crossings on well-separated nodes.
		node := (c*7 + 3) % k
		state.Status[node].BatteryLevel = (state.Status[node].BatteryLevel + levels - 1) % levels

		start := time.Now()
		planIncr := incr.ComputeInto(alg, state, dests, prevIncr)
		incrNS += time.Since(start).Nanoseconds()
		prevIncr = planIncr.Tables

		if row.FullRan {
			start = time.Now()
			planFull := full.ComputeInto(alg, state, dests, prevFull)
			fullNS += time.Since(start).Nanoseconds()
			prevFull = planFull.Tables
			if planIncr.Fingerprint() != planFull.Fingerprint() {
				row.Identical = false
			}
		}
	}

	st := incr.Stats()
	// The bootstrap pass is the one guaranteed full computation; everything
	// beyond it inside the measured window is a crossover fallback.
	row.Repairs = st.Incremental
	row.Fallbacks = st.Full - 1
	if st.Incremental > 0 {
		row.DirtyFrac = float64(st.DirtyVertices) / float64(st.Incremental) / float64(k)
		row.AffectedFrac = float64(st.AffectedPairs) / float64(st.Incremental) / float64(k) / float64(k)
	}
	row.IncrementalMS = float64(incrNS) / 1e6 / float64(crossings)
	if row.FullRan {
		row.FullMS = float64(fullNS) / 1e6 / float64(crossings)
		if row.IncrementalMS > 0 {
			row.Speedup = row.FullMS / row.IncrementalMS
		}
	}
	return row, nil
}

// ScalingTable renders the scaling study, one row per mesh size.
func ScalingTable(rows []ScalingRow) *stats.Table {
	t := stats.NewTable("Big-mesh scaling: incremental dirty-set repair vs full Floyd-Warshall (per battery-level crossing)",
		"mesh", "nodes", "full [ms]", "incremental [ms]", "speedup", "repairs", "fallbacks", "dirty/K", "affected/K^2", "identical")
	for _, r := range rows {
		fullMS, speedup, identical := "-", "-", "-"
		if r.FullRan {
			fullMS = fmt.Sprintf("%.3f", r.FullMS)
			speedup = fmt.Sprintf("%.1fx", r.Speedup)
			identical = fmt.Sprintf("%v", r.Identical)
		}
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Nodes, fullMS,
			fmt.Sprintf("%.3f", r.IncrementalMS), speedup, r.Repairs, r.Fallbacks,
			fmt.Sprintf("%.3f", r.DirtyFrac), fmt.Sprintf("%.3f", r.AffectedFrac), identical)
	}
	return t
}
