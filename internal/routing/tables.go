package routing

import (
	"repro/internal/app"
	"repro/internal/topology"
)

// Route is the phase-3 decision for one (source node, module) pair: which
// duplicate of the module the next operation should be sent to, the first
// hop towards it, and the (weighted) distance of the chosen path.
type Route struct {
	Dest     topology.NodeID
	NextHop  topology.NodeID
	Distance float64
}

// Valid reports whether the route points at a reachable destination.
func (r Route) Valid() bool { return r.Dest != topology.Invalid && r.NextHop != topology.Invalid }

// invalidRoute is the sentinel stored for (node, module) pairs phase 3 could
// not route.
var invalidRoute = Route{Dest: topology.Invalid, NextHop: topology.Invalid, Distance: Inf}

// Tables holds the routing tables of every alive node as dense slice-backed
// storage: per-(node, module) routes and a per-(node, destination) successor
// matrix, both flat and index-addressed, so the controller can rebuild them
// every frame without allocating.
type Tables struct {
	nodes   int
	modules int // exclusive upper bound on ModuleID (IDs are 1-based)

	has     []bool            // per node: the node was alive and got a table
	known   []bool            // per module: the module had a duplicate list
	routes  []Route           // nodes*modules, row-major by node
	nextHop []topology.NodeID // nodes*nodes, row-major by source node
}

// reset re-dimensions the tables and clears them, reusing backing storage.
func (ts *Tables) reset(nodes, modules int) {
	ts.nodes, ts.modules = nodes, modules
	ts.has = resizeBools(ts.has, nodes)
	ts.known = resizeBools(ts.known, modules)
	if cap(ts.routes) < nodes*modules {
		ts.routes = make([]Route, nodes*modules)
	}
	ts.routes = ts.routes[:nodes*modules]
	for i := range ts.routes {
		ts.routes[i] = invalidRoute
	}
	if cap(ts.nextHop) < nodes*nodes {
		ts.nextHop = make([]topology.NodeID, nodes*nodes)
	}
	ts.nextHop = ts.nextHop[:nodes*nodes]
	for i := range ts.nextHop {
		ts.nextHop[i] = topology.Invalid
	}
}

// resizeBools returns a cleared bool slice of length n, reusing s's capacity.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// Has reports whether node received a routing table (i.e. was alive when the
// tables were built).
func (ts *Tables) Has(node topology.NodeID) bool {
	return ts != nil && int(node) >= 0 && int(node) < ts.nodes && ts.has[node]
}

// Len returns the number of nodes that received a routing table.
func (ts *Tables) Len() int {
	if ts == nil {
		return 0
	}
	n := 0
	for _, h := range ts.has {
		if h {
			n++
		}
	}
	return n
}

// RouteTo returns the route downloaded to node for the given module, if any.
func (ts *Tables) RouteTo(node topology.NodeID, id app.ModuleID) (Route, bool) {
	if !ts.Has(node) || int(id) < 0 || int(id) >= ts.modules || !ts.known[id] {
		return Route{}, false
	}
	return ts.routes[int(node)*ts.modules+int(id)], true
}

// NextHop returns the next hop from node `from` towards destination `dest`,
// or topology.Invalid if unknown.
func (ts *Tables) NextHop(from, dest topology.NodeID) topology.NodeID {
	if !ts.Has(from) {
		return topology.Invalid
	}
	if from == dest {
		return dest
	}
	if int(dest) < 0 || int(dest) >= ts.nodes {
		return topology.Invalid
	}
	return ts.nextHop[int(from)*ts.nodes+int(dest)]
}

// Table is a view of one node's routing information within Tables: the chosen
// destination per module plus the successor towards every reachable node,
// which the node uses to relay packets that are merely passing through.
type Table struct {
	ts   *Tables
	node topology.NodeID
}

// Table returns the view of node's routing table; ok is false when the node
// has none (it was dead when the tables were built).
func (ts *Tables) Table(node topology.NodeID) (Table, bool) {
	if !ts.Has(node) {
		return Table{}, false
	}
	return Table{ts: ts, node: node}, true
}

// RouteTo returns the route for the given module, if any.
func (t Table) RouteTo(id app.ModuleID) (Route, bool) {
	if t.ts == nil {
		return Route{}, false
	}
	return t.ts.RouteTo(t.node, id)
}

// NextHopTo returns the successor from this node towards dest, or
// topology.Invalid if dest is unknown or unreachable.
func (t Table) NextHopTo(dest topology.NodeID) topology.NodeID {
	if t.ts == nil {
		return topology.Invalid
	}
	return t.ts.NextHop(t.node, dest)
}

// destSet is the dense, index-addressed form of the module duplicate lists
// (S_i). It aliases the caller's duplicate slices and is reused across
// recomputes.
type destSet struct {
	modules int
	known   []bool
	dups    [][]topology.NodeID
}

// fill re-populates the set from the map form, reusing backing storage.
func (d *destSet) fill(destinations map[app.ModuleID][]topology.NodeID) {
	maxID := -1
	for id := range destinations {
		if int(id) > maxID {
			maxID = int(id)
		}
	}
	d.modules = maxID + 1
	d.known = resizeBools(d.known, d.modules)
	if cap(d.dups) < d.modules {
		d.dups = make([][]topology.NodeID, d.modules)
	}
	d.dups = d.dups[:d.modules]
	for i := range d.dups {
		d.dups[i] = nil
	}
	for id, dups := range destinations {
		if int(id) < 0 {
			continue
		}
		d.known[id] = true
		d.dups[id] = dups
	}
}

// BuildTables runs phase 3 (Fig 6): for every alive node and every module it
// selects the duplicate with the smallest phase-2 distance, skipping — when
// the node currently reports a deadlock — the next hop recorded in its
// previous routing table so the stuck job is redirected along an unlocked
// path. destinations lists the duplicates S_i of every module; dead
// duplicates are ignored. prev may be nil on the first invocation. Hot paths
// should use ComputeInto with a reused Workspace instead.
func BuildTables(state *SystemState, sp *ShortestPaths, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Tables {
	var ds destSet
	ds.fill(destinations)
	ts := &Tables{}
	buildTablesInto(ts, state, sp, &ds, prev)
	return ts
}

// buildTablesInto is the allocation-free phase-3 core shared by BuildTables
// and ComputeInto. out must not alias prev.
func buildTablesInto(out *Tables, state *SystemState, sp *ShortestPaths, dests *destSet, prev *Tables) {
	k := state.Graph.NodeCount()
	out.reset(k, dests.modules)
	copy(out.known, dests.known)
	// One liveness pass: has doubles as the alive mask of every lookup below.
	for n := 0; n < k; n++ {
		out.has[n] = state.Alive(topology.NodeID(n))
	}
	for n := 0; n < k; n++ {
		if !out.has[n] {
			continue
		}
		node := topology.NodeID(n)
		distRow := sp.dist.Row(n)[:k]
		succRow := sp.succ[n*sp.n:][:k]
		hopRow := out.nextHop[n*k : (n+1)*k]
		for d, dd := range distRow {
			if d != n && dd < Inf && out.has[d] {
				hopRow[d] = succRow[d]
			}
		}
		deadlocked := state.StatusOf(node).Deadlocked
		routeRow := out.routes[n*out.modules : (n+1)*out.modules]
		for m := 0; m < dests.modules; m++ {
			if !dests.known[m] {
				continue
			}
			moduleID := app.ModuleID(m)
			blockedHop := topology.Invalid
			if deadlocked && prev != nil {
				if prevRoute, ok := prev.RouteTo(node, moduleID); ok {
					blockedHop = prevRoute.NextHop
				}
			}
			best := invalidRoute
			fallback := best
			for _, dup := range dests.dups[m] {
				if !out.Has(dup) || distRow[dup] == Inf {
					continue
				}
				hop := succRow[dup]
				candidate := Route{Dest: dup, NextHop: hop, Distance: distRow[dup]}
				if better(candidate, fallback) {
					fallback = candidate
				}
				if blockedHop != topology.Invalid && hop == blockedHop && dup != node {
					continue
				}
				if better(candidate, best) {
					best = candidate
				}
			}
			// If every alternative went through the blocked port, fall back to
			// the unconstrained optimum rather than leaving the module
			// unreachable (the deadlock will be reported again next frame).
			if !best.Valid() {
				best = fallback
			}
			routeRow[m] = best
		}
	}
}

// better reports whether candidate is preferable to current: strictly smaller
// distance, with ties broken towards the smaller destination ID for
// determinism.
func better(candidate, current Route) bool {
	if !candidate.Valid() {
		return false
	}
	if !current.Valid() {
		return true
	}
	if candidate.Distance != current.Distance {
		return candidate.Distance < current.Distance
	}
	return candidate.Dest < current.Dest
}
