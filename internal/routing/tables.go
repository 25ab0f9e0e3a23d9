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
// storage: the per-(node, module) routes phase 3 chose, flat and
// index-addressed, so the controller can rebuild them every frame without
// allocating. Next hops are not copied: NextHop reads the successor matrix
// of the phase-2 result the tables were built from, so the tables answer
// relay queries only while that result is unchanged (see DeltaWorkspace
// for the lifetime contract).
type Tables struct {
	nodes   int
	modules int // exclusive upper bound on ModuleID (IDs are 1-based)

	has    []bool         // per node: the node was alive and got a table
	known  []bool         // per module: the module had a duplicate list
	routes []Route        // nodes*modules, row-major by node
	sp     *ShortestPaths // the phase 2 the routes were chosen from
}

// reset re-dimensions the tables and clears them, reusing backing storage.
func (ts *Tables) reset(nodes, modules int, sp *ShortestPaths) {
	ts.nodes, ts.modules, ts.sp = nodes, modules, sp
	ts.has = resizeBools(ts.has, nodes)
	ts.known = resizeBools(ts.known, modules)
	if cap(ts.routes) < nodes*modules {
		ts.routes = make([]Route, nodes*modules)
	}
	ts.routes = ts.routes[:nodes*modules]
	for i := range ts.routes {
		ts.routes[i] = invalidRoute
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

// RouteTo returns the route downloaded to node for the given module, if any.
func (ts *Tables) RouteTo(node topology.NodeID, id app.ModuleID) (Route, bool) {
	if !ts.Has(node) || int(id) < 0 || int(id) >= ts.modules || !ts.known[id] {
		return Route{}, false
	}
	return ts.routes[int(node)*ts.modules+int(id)], true
}

// NextHop returns the next hop from node `from` towards destination `dest`:
// dest itself when from == dest, and topology.Invalid when either end has no
// table or dest is unreachable; otherwise the phase-2 successor.
func (ts *Tables) NextHop(from, dest topology.NodeID) topology.NodeID {
	if !ts.Has(from) {
		return topology.Invalid
	}
	if from == dest {
		return dest
	}
	if !ts.Has(dest) || ts.sp.Dist(from, dest) == Inf {
		return topology.Invalid
	}
	return ts.sp.Succ(from, dest)
}

// destSet is the dense, index-addressed form of the module duplicate lists
// (S_i), restricted to the duplicates alive in the current recompute and
// refilled into reused buffers each time: known marks the modules that have
// a list, and module m's alive duplicates, in list order, are
// alive[off[m]:off[m+1]].
type destSet struct {
	known []bool
	alive []topology.NodeID
	off   []int32 // len(known)+1 offsets into alive
}

// fill re-populates the set from the map form, dropping duplicates outside
// [0, nodes) and duplicates dead in state, in O(Σ|S_i|).
func (d *destSet) fill(destinations map[app.ModuleID][]topology.NodeID, state *SystemState, nodes int) {
	modules := 0
	for id := range destinations {
		modules = max(modules, int(id)+1)
	}
	d.known = resizeBools(d.known, modules)
	if cap(d.off) < modules+1 {
		d.off = make([]int32, modules+1)
	}
	d.off = d.off[:modules+1]
	d.alive = d.alive[:0]
	for m := 0; m < modules; m++ {
		d.off[m] = int32(len(d.alive))
		dups, ok := destinations[app.ModuleID(m)]
		d.known[m] = ok
		for _, dup := range dups {
			if int(dup) < nodes && state.Alive(dup) {
				d.alive = append(d.alive, dup)
			}
		}
	}
	d.off[modules] = int32(len(d.alive))
}

// aliveDups returns module m's alive duplicates.
func (d *destSet) aliveDups(m int) []topology.NodeID {
	return d.alive[d.off[m]:d.off[m+1]]
}

// BuildTables runs phase 3 (Fig 6): for every alive node and every module it
// selects the duplicate with the smallest phase-2 distance, skipping — when
// the node currently reports a deadlock — the next hop recorded in its
// previous routing table so the stuck job is redirected along an unlocked
// path. destinations lists the duplicates S_i of every module; dead
// duplicates are ignored. prev may be nil on the first invocation; only its
// routes are read. The returned tables read their next hops from sp, so they
// answer NextHop only while sp is unchanged. Hot paths should use
// DeltaWorkspace.ComputeInto, which reuses the table buffers.
func BuildTables(state *SystemState, sp *ShortestPaths, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Tables {
	ts := &Tables{}
	buildTablesInto(ts, state, sp, destinations, &destSet{}, prev)
	return ts
}

// buildTablesInto is the allocation-free phase-3 core of BuildTables:
// prepareTables, then chooseRoutes over every node. dests is its reused
// scratch. out must not alias prev; out keeps sp for NextHop.
func buildTablesInto(out *Tables, state *SystemState, sp *ShortestPaths, destinations map[app.ModuleID][]topology.NodeID, dests *destSet, prev *Tables) {
	prepareTables(out, state, sp, destinations, dests)
	out.chooseRoutes(0, out.nodes, state, dests, prev)
}

// prepareTables fills dests from destinations and clears out for the
// routes chooseRoutes selects over sp, marking the alive nodes.
func prepareTables(out *Tables, state *SystemState, sp *ShortestPaths, destinations map[app.ModuleID][]topology.NodeID, dests *destSet) {
	k := state.Graph.NodeCount()
	dests.fill(destinations, state, k)
	out.reset(k, len(dests.known), sp)
	copy(out.known, dests.known)
	for n := 0; n < k; n++ {
		out.has[n] = state.Alive(topology.NodeID(n))
	}
}

// chooseRoutes selects the routes of nodes lo..hi−1 into the tables that
// prepareTables cleared. It writes only those nodes' route rows and reads
// only their distance and successor rows, so disjoint node ranges may run
// concurrently.
//
// Every row but a deadlocked one is one argmin per module over the module's
// alive duplicates, reading only the distance row: the smallest distance
// wins, ties go to the smaller duplicate ID (better's order, whatever the
// list order), and an unreachable duplicate never wins. The successor is
// read once, for the winner. A deadlocked row with a previous table goes
// through deadlockedRoute instead.
func (out *Tables) chooseRoutes(lo, hi int, state *SystemState, dests *destSet, prev *Tables) {
	sp, k := out.sp, out.nodes
	for n := lo; n < hi; n++ {
		if !out.has[n] {
			continue
		}
		node := topology.NodeID(n)
		distRow := sp.dist.Row(n)[:k]
		succRow := sp.succ[n*sp.n:][:k]
		routeRow := out.routes[n*out.modules : (n+1)*out.modules]
		if prev != nil && state.StatusOf(node).Deadlocked {
			for m := range routeRow {
				routeRow[m] = deadlockedRoute(node, prev, app.ModuleID(m), dests.aliveDups(m), distRow, succRow)
			}
			continue
		}
		for m := range routeRow {
			best, bestD := topology.Invalid, Inf
			for _, dup := range dests.aliveDups(m) {
				if d := distRow[dup]; d < bestD || (d == bestD && d < Inf && dup < best) {
					best, bestD = dup, d
				}
			}
			if best != topology.Invalid {
				routeRow[m] = Route{Dest: best, NextHop: succRow[best], Distance: bestD}
			}
		}
	}
}

// deadlockedRoute selects node's route to module m while node reports a
// deadlock: the nearest alive duplicate whose first hop is not the next hop
// of node's previous route to m, so the stuck job is redirected along an
// unlocked path. If every alternative goes through the blocked hop it falls
// back to the unconstrained optimum rather than leaving the module
// unreachable (the deadlock will be reported again next frame).
func deadlockedRoute(node topology.NodeID, prev *Tables, m app.ModuleID, dups []topology.NodeID, distRow []float64, succRow []topology.NodeID) Route {
	blockedHop := topology.Invalid
	if prevRoute, ok := prev.RouteTo(node, m); ok {
		blockedHop = prevRoute.NextHop
	}
	best := invalidRoute
	fallback := best
	for _, dup := range dups {
		if distRow[dup] == Inf {
			continue
		}
		candidate := Route{Dest: dup, NextHop: succRow[dup], Distance: distRow[dup]}
		if better(candidate, fallback) {
			fallback = candidate
		}
		if blockedHop != topology.Invalid && candidate.NextHop == blockedHop && dup != node {
			continue
		}
		if better(candidate, best) {
			best = candidate
		}
	}
	if !best.Valid() {
		best = fallback
	}
	return best
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
