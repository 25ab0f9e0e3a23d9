package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/topology"
)

// fullState returns a snapshot in which every node of g is alive with a full
// battery.
func fullState(g *topology.Graph, levels int) *SystemState {
	st := &SystemState{Graph: g, Levels: levels, Status: make([]NodeStatus, g.NodeCount())}
	for _, n := range g.Nodes() {
		st.Status[n.ID] = NodeStatus{Alive: true, BatteryLevel: levels - 1}
	}
	return st
}

func TestSDRWeightsMatchLinkLengths(t *testing.T) {
	mesh := topology.MustMesh(3, 3, 2.5)
	state := fullState(mesh.Graph, 8)
	w := weights(SDR{}, state)
	if w.Dim() != 9 {
		t.Fatalf("weight matrix dimension = %d, want 9", w.Dim())
	}
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	c, _ := mesh.IDAt(3, 3)
	if w.At(int(a), int(b)) != 2.5 {
		t.Errorf("adjacent weight = %g, want 2.5", w.At(int(a), int(b)))
	}
	if w.At(int(a), int(a)) != 0 {
		t.Errorf("diagonal weight = %g, want 0", w.At(int(a), int(a)))
	}
	if !math.IsInf(w.At(int(a), int(c)), 1) {
		t.Errorf("non-adjacent weight = %g, want +Inf", w.At(int(a), int(c)))
	}
}

func TestWeightsExcludeDeadNodes(t *testing.T) {
	mesh := topology.MustMesh(2, 2, 1)
	state := fullState(mesh.Graph, 8)
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	state.Status[b] = NodeStatus{Alive: false}
	for _, alg := range []Algorithm{SDR{}, NewEAR()} {
		w := weights(alg, state)
		if !math.IsInf(w.At(int(a), int(b)), 1) {
			t.Errorf("%s: edge into dead node has weight %g, want +Inf", alg.Name(), w.At(int(a), int(b)))
		}
		if !math.IsInf(w.At(int(b), int(a)), 1) {
			t.Errorf("%s: edge out of dead node has weight %g, want +Inf", alg.Name(), w.At(int(b), int(a)))
		}
	}
}

func TestEARPenaltyFunction(t *testing.T) {
	p := EARParams{Q: 2, Levels: 8}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Penalty(7); got != 1 {
		t.Errorf("Penalty(full) = %g, want 1", got)
	}
	if got := p.Penalty(0); got != 128 {
		t.Errorf("Penalty(empty) = %g, want 2^7 = 128", got)
	}
	if got := p.Penalty(4); got != 8 {
		t.Errorf("Penalty(4) = %g, want 8", got)
	}
	// Out-of-range levels are clamped.
	if p.Penalty(-3) != p.Penalty(0) || p.Penalty(99) != p.Penalty(7) {
		t.Error("penalty did not clamp out-of-range levels")
	}
	if (EARParams{Q: 2, Levels: 1}).Validate() == nil {
		t.Error("single level accepted")
	}
	// Q must be finite and positive, and max(Q, 1/Q)^(Levels-1) at most
	// 2^32: past that the incremental repair is no longer exact.
	for _, bad := range []EARParams{
		{Q: 0, Levels: 8}, {Q: -2, Levels: 8}, {Q: math.NaN(), Levels: 8}, {Q: math.Inf(1), Levels: 8},
		{Q: 1e-20, Levels: 8}, {Q: 1e10, Levels: 8}, {Q: 23.8, Levels: 8}, {Q: 2, Levels: 34}, {Q: 0.5, Levels: 34},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	for _, good := range []EARParams{
		{Q: 1, Levels: 8}, {Q: 1.5, Levels: 8}, {Q: 4, Levels: 8}, {Q: 16, Levels: 8}, {Q: 23.7, Levels: 8},
		{Q: 1.0 / 16, Levels: 8}, {Q: 2, Levels: 33}, {Q: 0.5, Levels: 33}, {Q: 1, Levels: 1000},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", good, err)
		}
	}
}

func TestEARWeightsPenalizeLowBattery(t *testing.T) {
	mesh := topology.MustMesh(3, 1, 1)
	state := fullState(mesh.Graph, 8)
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	c, _ := mesh.IDAt(3, 1)
	// Node b is nearly depleted.
	state.Status[b] = NodeStatus{Alive: true, BatteryLevel: 1}
	ear := NewEAR()
	w := weights(ear, state)
	if w.At(int(a), int(b)) <= w.At(int(b), int(c)) {
		t.Errorf("edge into depleted node (%g) should weigh more than edge into full node (%g)",
			w.At(int(a), int(b)), w.At(int(b), int(c)))
	}
	want := ear.Params.Penalty(1) * 1.0
	if w.At(int(a), int(b)) != want {
		t.Errorf("weight into depleted node = %g, want %g", w.At(int(a), int(b)), want)
	}
	// Zero-value EAR falls back to default parameters rather than dividing by zero.
	var zeroEAR EAR
	wz := weights(zeroEAR, state)
	if math.IsNaN(wz.At(int(a), int(b))) || wz.At(int(a), int(b)) <= 0 {
		t.Errorf("zero-value EAR produced weight %g", wz.At(int(a), int(b)))
	}
}

// TestEARWeightsMemoMatchesPenalty checks that the per-call penalty memo
// of EAR.WeightsInto writes Penalty(level)*length bit for bit, for level
// counts inside and past the memo and for out-of-range reported levels,
// and that a reused matrix takes no allocation.
func TestEARWeightsMemoMatchesPenalty(t *testing.T) {
	mesh := topology.MustMesh(6, 6, 1.5)
	for _, params := range []EARParams{{Q: 2, Levels: 8}, {Q: 0.5, Levels: 33}, {Q: 1.25, Levels: 100}} {
		state := fullState(mesh.Graph, params.Levels)
		for n := range state.Status {
			state.Status[n].BatteryLevel = n*7%(params.Levels+4) - 2
		}
		ear := EAR{Params: params}
		w := weights(ear, state)
		for _, l := range mesh.Graph.Links() {
			want := params.Penalty(state.Status[l.To].BatteryLevel) * l.LengthCM
			if got := w.At(int(l.From), int(l.To)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: w(%d,%d) = %v, want %v", params, l.From, l.To, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { ear.WeightsInto(&w, state) }); allocs != 0 {
			t.Errorf("%+v: WeightsInto allocated %.1f times per call, want 0", params, allocs)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (SDR{}).Name() != "SDR" || (EAR{}).Name() != "EAR" {
		t.Error("algorithm names wrong")
	}
}

func TestMatrixResetReusesStorage(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 2, 42)
	m.Reset(3)
	if m.Dim() != 3 {
		t.Fatalf("Dim after Reset = %d, want 3", m.Dim())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := Inf
			if i == j {
				want = 0
			}
			if m.At(i, j) != want {
				t.Fatalf("At(%d,%d) = %g after Reset, want %g", i, j, m.At(i, j), want)
			}
		}
	}
	// Growing past the original capacity must also work.
	m.Reset(6)
	if m.Dim() != 6 || m.At(5, 5) != 0 || !math.IsInf(m.At(0, 5), 1) {
		t.Fatal("Reset to a larger dimension produced a malformed matrix")
	}
}

func TestAllPairsOnLineGraph(t *testing.T) {
	mesh := topology.MustMesh(4, 1, 1)
	state := fullState(mesh.Graph, 8)
	sp := allPairs(weights(SDR{}, state))
	a, _ := mesh.IDAt(1, 1)
	d, _ := mesh.IDAt(4, 1)
	if sp.Dist(a, d) != 3 {
		t.Errorf("distance end-to-end = %g, want 3", sp.Dist(a, d))
	}
	path, err := sp.Path(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 || path[0] != a || path[3] != d {
		t.Errorf("path = %v, want the 4-node line", path)
	}
	if sp.HopCount(a, d) != 3 {
		t.Errorf("HopCount = %d, want 3", sp.HopCount(a, d))
	}
	if sp.HopCount(a, a) != 0 {
		t.Errorf("HopCount(a,a) = %d, want 0", sp.HopCount(a, a))
	}
}

func TestHopCountDoesNotAllocate(t *testing.T) {
	mesh := topology.MustMesh(6, 6, 1)
	state := fullState(mesh.Graph, 8)
	sp := allPairs(weights(SDR{}, state))
	a, _ := mesh.IDAt(1, 1)
	d, _ := mesh.IDAt(6, 6)
	allocs := testing.AllocsPerRun(100, func() {
		if sp.HopCount(a, d) != 10 {
			t.Fatal("wrong hop count")
		}
	})
	if allocs != 0 {
		t.Errorf("HopCount allocated %.1f times per call, want 0", allocs)
	}
}

// TestComputeFromSteadyStateZeroAllocs guards the full pass's reuse of its
// distance, successor and first-hop scratch storage.
func TestComputeFromSteadyStateZeroAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8, 1)
	state := fullState(mesh.Graph, 8)
	for n := range state.Status {
		state.Status[n].BatteryLevel = n % 8
	}
	w := weights(NewEAR(), state)
	var sp ShortestPaths
	sp.ComputeFrom(&w) // size the buffers
	if allocs := testing.AllocsPerRun(10, func() { sp.ComputeFrom(&w) }); allocs != 0 {
		t.Errorf("steady-state ComputeFrom allocated %.1f times per call, want 0", allocs)
	}
}

func TestAllPairsMatchesManhattanOnMesh(t *testing.T) {
	mesh := topology.MustMesh(5, 4, 2)
	state := fullState(mesh.Graph, 8)
	sp := allPairs(weights(SDR{}, state))
	for _, from := range mesh.Nodes() {
		for _, to := range mesh.Nodes() {
			want := float64(from.Pos.Manhattan(to.Pos)) * 2
			if math.Abs(sp.Dist(from.ID, to.ID)-want) > 1e-9 {
				t.Fatalf("dist %v -> %v = %g, want %g", from.Pos, to.Pos, sp.Dist(from.ID, to.ID), want)
			}
		}
	}
}

func TestAllPairsUnreachableAndDeadNodes(t *testing.T) {
	mesh := topology.MustMesh(3, 1, 1)
	state := fullState(mesh.Graph, 8)
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	c, _ := mesh.IDAt(3, 1)
	// Killing the middle node of a line disconnects the endpoints.
	state.Status[b] = NodeStatus{Alive: false}
	sp := allPairs(weights(SDR{}, state))
	if sp.Reachable(a, c) {
		t.Error("endpoints should be unreachable with the middle node dead")
	}
	if _, err := sp.Path(a, c); err == nil {
		t.Error("Path across a dead node should fail")
	}
	if sp.HopCount(a, c) != -1 {
		t.Errorf("HopCount unreachable = %d, want -1", sp.HopCount(a, c))
	}
	if _, err := sp.Path(a, topology.NodeID(99)); err == nil {
		t.Error("Path with out-of-range destination should fail")
	}
	if sp.HopCount(a, topology.NodeID(99)) != -1 {
		t.Error("HopCount with out-of-range destination should be -1")
	}
}

func TestAllPairsTriangleInequalityProperty(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	state := fullState(mesh.Graph, 8)
	// Give nodes varied battery levels so EAR weights are heterogeneous.
	for id := range state.Status {
		state.Status[id] = NodeStatus{Alive: true, BatteryLevel: id % 8}
	}
	for _, alg := range []Algorithm{SDR{}, NewEAR()} {
		sp := allPairs(weights(alg, state))
		k := mesh.Size()
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				for via := 0; via < k; via++ {
					if sp.Dist(topology.NodeID(i), topology.NodeID(j)) >
						sp.Dist(topology.NodeID(i), topology.NodeID(via))+sp.Dist(topology.NodeID(via), topology.NodeID(j))+1e-9 {
						t.Fatalf("%s: triangle inequality violated for %d,%d via %d", alg.Name(), i, j, via)
					}
				}
			}
		}
	}
}

func TestAllPairsPathDistanceConsistencyProperty(t *testing.T) {
	prop := func(widthRaw, heightRaw uint8) bool {
		w := int(widthRaw%5) + 2
		h := int(heightRaw%5) + 2
		mesh := topology.MustMesh(w, h, 1)
		state := fullState(mesh.Graph, 8)
		sp := allPairs(weights(SDR{}, state))
		// The reconstructed path length must equal the reported distance.
		for _, from := range mesh.Nodes() {
			for _, to := range mesh.Nodes() {
				path, err := sp.Path(from.ID, to.ID)
				if err != nil {
					return false
				}
				var total float64
				for i := 1; i < len(path); i++ {
					l, ok := mesh.Link(path[i-1], path[i])
					if !ok {
						return false
					}
					total += l.LengthCM
				}
				if math.Abs(total-sp.Dist(from.ID, to.ID)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTablesPicksNearestDuplicate(t *testing.T) {
	mesh := topology.MustMesh(4, 1, 1)
	state := fullState(mesh.Graph, 8)
	n1, _ := mesh.IDAt(1, 1)
	n2, _ := mesh.IDAt(2, 1)
	n3, _ := mesh.IDAt(3, 1)
	n4, _ := mesh.IDAt(4, 1)
	dests := map[app.ModuleID][]topology.NodeID{1: {n1, n4}}
	sp := allPairs(weights(SDR{}, state))
	tables := BuildTables(state, sp, dests, nil)
	r, ok := tables.RouteTo(n2, 1)
	if !ok || r.Dest != n1 {
		t.Fatalf("node 2 routes module 1 to %v, want nearest duplicate %d", r, n1)
	}
	r, ok = tables.RouteTo(n3, 1)
	if !ok || r.Dest != n4 {
		t.Fatalf("node 3 routes module 1 to %v, want nearest duplicate %d", r, n4)
	}
	// A node that itself hosts the module routes to itself at distance 0.
	r, _ = tables.RouteTo(n1, 1)
	if r.Dest != n1 || r.Distance != 0 || r.NextHop != n1 {
		t.Fatalf("self-hosting node route = %+v, want self at distance 0", r)
	}
	// Unknown modules report no route.
	if _, ok := tables.RouteTo(n1, 99); ok {
		t.Error("unknown module reported a route")
	}
}

// TestBuildTablesTieBreakIgnoresDuplicateOrder feeds BuildTables the same
// duplicates in several orders (mapping.New sorts its lists, but the map
// form need not be sorted): an equidistant tie must go to the smaller ID, a
// dead duplicate must be skipped however close it is, and a source hosting
// the module must route to itself at distance 0.
func TestBuildTablesTieBreakIgnoresDuplicateOrder(t *testing.T) {
	mesh := topology.MustMesh(5, 5, 1)
	state := fullState(mesh.Graph, 8)
	at := func(x, y int) topology.NodeID {
		id, ok := mesh.IDAt(x, y)
		if !ok {
			t.Fatalf("no node at (%d,%d)", x, y)
		}
		return id
	}
	src := at(3, 3)
	west, east, far, dead := at(1, 3), at(5, 3), at(5, 5), at(3, 2)
	// Phase 2 still sees the dead duplicate alive and one hop away, so only
	// phase 3's liveness filter keeps it from winning.
	sp := allPairs(weights(SDR{}, state))
	state.Status[dead] = NodeStatus{Alive: false}
	if sp.Dist(src, west) != sp.Dist(src, east) || sp.Dist(src, far) <= sp.Dist(src, west) {
		t.Fatalf("setup: dist west %g, east %g, far %g", sp.Dist(src, west), sp.Dist(src, east), sp.Dist(src, far))
	}
	tie := min(west, east)
	for _, dups := range [][]topology.NodeID{
		{west, east, far, dead},
		{dead, far, east, west},
		{far, east, dead, west},
		{east, dead, west, far},
	} {
		// Module 2 lists the source itself among the same duplicates.
		self := append([]topology.NodeID{dups[0], dups[1]}, src)
		self = append(self, dups[2:]...)
		tables := BuildTables(state, sp, map[app.ModuleID][]topology.NodeID{1: dups, 2: self}, nil)
		if r, _ := tables.RouteTo(src, 1); r.Dest != tie || r.Distance != sp.Dist(src, tie) || r.NextHop != sp.Succ(src, tie) {
			t.Errorf("order %v: route = %+v, want the smaller tied duplicate %d", dups, r, tie)
		}
		if r, _ := tables.RouteTo(src, 2); r.Dest != src || r.NextHop != src || r.Distance != 0 {
			t.Errorf("order %v: self-hosting route = %+v, want %d at distance 0", self, r, src)
		}
	}
}

func TestBuildTablesEARPrefersChargedDuplicate(t *testing.T) {
	// Node in the middle of a 3-node line with duplicates at both ends at
	// equal physical distance: EAR must pick the better-charged end, SDR the
	// smaller node ID.
	mesh := topology.MustMesh(3, 1, 1)
	state := fullState(mesh.Graph, 8)
	left, _ := mesh.IDAt(1, 1)
	mid, _ := mesh.IDAt(2, 1)
	right, _ := mesh.IDAt(3, 1)
	state.Status[left] = NodeStatus{Alive: true, BatteryLevel: 1}
	state.Status[right] = NodeStatus{Alive: true, BatteryLevel: 7}
	dests := map[app.ModuleID][]topology.NodeID{2: {left, right}}

	sdrPlan := compute(SDR{}, state, dests, nil)
	rSDR, _ := sdrPlan.Tables.RouteTo(mid, 2)
	if rSDR.Dest != left {
		t.Errorf("SDR picked %d, want the smaller-ID duplicate %d on a distance tie", rSDR.Dest, left)
	}

	earPlan := compute(NewEAR(), state, dests, nil)
	rEAR, _ := earPlan.Tables.RouteTo(mid, 2)
	if rEAR.Dest != right {
		t.Errorf("EAR picked %d, want the well-charged duplicate %d", rEAR.Dest, right)
	}
}

func TestBuildTablesSkipsDeadDuplicates(t *testing.T) {
	mesh := topology.MustMesh(3, 1, 1)
	state := fullState(mesh.Graph, 8)
	left, _ := mesh.IDAt(1, 1)
	mid, _ := mesh.IDAt(2, 1)
	right, _ := mesh.IDAt(3, 1)
	state.Status[left] = NodeStatus{Alive: false}
	dests := map[app.ModuleID][]topology.NodeID{1: {left, right}}
	plan := compute(SDR{}, state, dests, nil)
	r, _ := plan.Tables.RouteTo(mid, 1)
	if r.Dest != right {
		t.Errorf("route destination = %d, want the surviving duplicate %d", r.Dest, right)
	}
	// With every duplicate dead the route must be invalid.
	state.Status[right] = NodeStatus{Alive: false}
	plan = compute(SDR{}, state, dests, nil)
	r, _ = plan.Tables.RouteTo(mid, 1)
	if r.Valid() {
		t.Errorf("route to a fully-dead module reported valid: %+v", r)
	}
}

func TestBuildTablesDeadlockAvoidance(t *testing.T) {
	// 3x1 line, node in the middle is deadlocked towards its previous next
	// hop (left); the rebuilt table must redirect to the right duplicate even
	// though it is equally far.
	mesh := topology.MustMesh(3, 1, 1)
	state := fullState(mesh.Graph, 8)
	left, _ := mesh.IDAt(1, 1)
	mid, _ := mesh.IDAt(2, 1)
	right, _ := mesh.IDAt(3, 1)
	dests := map[app.ModuleID][]topology.NodeID{1: {left, right}}

	first := compute(SDR{}, state, dests, nil)
	r0, _ := first.Tables.RouteTo(mid, 1)
	if r0.Dest != left {
		t.Fatalf("initial route = %+v, want left duplicate", r0)
	}

	state.Status[mid] = NodeStatus{Alive: true, BatteryLevel: 7, Deadlocked: true}
	second := compute(SDR{}, state, dests, first.Tables)
	r1, _ := second.Tables.RouteTo(mid, 1)
	if r1.Dest != right || r1.NextHop == r0.NextHop {
		t.Fatalf("deadlocked node not redirected: before %+v, after %+v", r0, r1)
	}
}

func TestBuildTablesDeadlockFallbackWhenNoAlternative(t *testing.T) {
	// Only one duplicate exists; even though the node is deadlocked towards
	// it, the route must fall back to that duplicate instead of becoming
	// invalid.
	mesh := topology.MustMesh(2, 1, 1)
	state := fullState(mesh.Graph, 8)
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	dests := map[app.ModuleID][]topology.NodeID{1: {b}}
	first := compute(SDR{}, state, dests, nil)
	state.Status[a] = NodeStatus{Alive: true, BatteryLevel: 7, Deadlocked: true}
	second := compute(SDR{}, state, dests, first.Tables)
	r, _ := second.Tables.RouteTo(a, 1)
	if !r.Valid() || r.Dest != b {
		t.Fatalf("fallback route = %+v, want destination %d", r, b)
	}
}

func TestTablesNextHopRelay(t *testing.T) {
	mesh := topology.MustMesh(4, 1, 1)
	state := fullState(mesh.Graph, 8)
	plan := compute(SDR{}, state, map[app.ModuleID][]topology.NodeID{}, nil)
	a, _ := mesh.IDAt(1, 1)
	b, _ := mesh.IDAt(2, 1)
	d, _ := mesh.IDAt(4, 1)
	if got := plan.Tables.NextHop(a, d); got != b {
		t.Errorf("NextHop(a, d) = %d, want %d", got, b)
	}
	if got := plan.Tables.NextHop(a, a); got != a {
		t.Errorf("NextHop(a, a) = %d, want %d", got, a)
	}
	if got := plan.Tables.NextHop(topology.NodeID(77), d); got != topology.Invalid {
		t.Errorf("NextHop from unknown node = %d, want Invalid", got)
	}
	if got := plan.Tables.NextHop(a, topology.NodeID(77)); got != topology.Invalid {
		t.Errorf("NextHop to unknown destination = %d, want Invalid", got)
	}

	// Killing c leaves c dead and d alive but cut off from a.
	c, _ := mesh.IDAt(3, 1)
	state.Status[c] = NodeStatus{Alive: false}
	plan = compute(SDR{}, state, map[app.ModuleID][]topology.NodeID{}, nil)
	if got := plan.Tables.NextHop(a, b); got != b {
		t.Errorf("NextHop(a, b) = %d, want %d", got, b)
	}
	if got := plan.Tables.NextHop(a, c); got != topology.Invalid {
		t.Errorf("NextHop to dead destination = %d, want Invalid", got)
	}
	if got := plan.Tables.NextHop(a, d); got != topology.Invalid {
		t.Errorf("NextHop to partitioned destination = %d, want Invalid", got)
	}
	if got := plan.Tables.NextHop(c, c); got != topology.Invalid {
		t.Errorf("NextHop from dead node = %d, want Invalid", got)
	}
	if got := plan.Tables.NextHop(d, d); got != d {
		t.Errorf("NextHop(d, d) = %d, want %d", got, d)
	}
}

func TestBuildTablesSkipsDeadSources(t *testing.T) {
	mesh := topology.MustMesh(2, 2, 1)
	state := fullState(mesh.Graph, 8)
	dead, _ := mesh.IDAt(1, 1)
	state.Status[dead] = NodeStatus{Alive: false}
	plan := compute(SDR{}, state, map[app.ModuleID][]topology.NodeID{}, nil)
	if plan.Tables.Has(dead) {
		t.Error("dead node received a routing table")
	}
	if plan.Tables.Len() != 3 {
		t.Errorf("tables built for %d nodes, want 3", plan.Tables.Len())
	}
}

func TestSystemStateEqualAndClone(t *testing.T) {
	mesh := topology.MustMesh(2, 2, 1)
	a := fullState(mesh.Graph, 8)
	a.TopologyEpoch = 3
	b := a.Clone()
	if b.Graph != a.Graph || b.Levels != a.Levels || b.TopologyEpoch != a.TopologyEpoch || !slices.Equal(b.Status, a.Status) {
		t.Fatalf("clone %+v differs from the original %+v", b, a)
	}
	b.Status[0] = NodeStatus{Alive: true, BatteryLevel: 3}
	if a.Status[0].BatteryLevel == 3 {
		t.Fatal("modifying the clone changed the original")
	}
	// Out-of-range lookups report dead, matching the old missing-key
	// semantics of the map-backed snapshot.
	if a.Alive(topology.NodeID(99)) || a.Alive(topology.Invalid) {
		t.Fatal("out-of-range node reported alive")
	}
}

func TestComputePlanMetadata(t *testing.T) {
	mesh := topology.MustMesh(2, 2, 1)
	state := fullState(mesh.Graph, 8)
	plan := compute(NewEAR(), state, map[app.ModuleID][]topology.NodeID{}, nil)
	if plan.Algorithm != "EAR" {
		t.Errorf("plan algorithm = %q, want EAR", plan.Algorithm)
	}
	if plan.Paths == nil || plan.Tables == nil {
		t.Error("plan is missing paths or tables")
	}
}

// weights runs phase 1 alone into a fresh matrix.
func weights(alg Algorithm, state *SystemState) Matrix {
	var w Matrix
	alg.WeightsInto(&w, state)
	return w
}

// allPairs runs phase 2 alone on a weight matrix.
func allPairs(w Matrix) *ShortestPaths {
	sp := &ShortestPaths{}
	sp.ComputeFrom(&w)
	return sp
}

// compute runs all three phases on a fresh workspace, which the returned
// plan owns.
func compute(alg Algorithm, state *SystemState, dests map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	return newFullWorkspace().ComputeInto(alg, state, dests, prev)
}

// BenchmarkAllPairs times phase 2's full pass alone (ShortestPaths.ComputeFrom)
// on EAR weights with mixed battery levels, into reused storage. It must
// report 0 allocs/op.
func BenchmarkAllPairs(b *testing.B) {
	for _, size := range []int{4, 6, 8, 16} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			mesh := topology.MustMesh(size, size, 1)
			state := fullState(mesh.Graph, 8)
			for n := range state.Status {
				state.Status[n].BatteryLevel = 1 + n%7
			}
			w := weights(NewEAR(), state)
			var sp ShortestPaths
			sp.ComputeFrom(&w) // size the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.ComputeFrom(&w)
			}
		})
	}
}

// BenchmarkComputeIntoEAR8x8 is the steady-state controller path: all three
// phases through a reused full-mode workspace. It must report 0 allocs/op.
func BenchmarkComputeIntoEAR8x8(b *testing.B) {
	mesh := topology.MustMesh(8, 8, 1)
	state := fullState(mesh.Graph, 8)
	dests := map[app.ModuleID][]topology.NodeID{
		1: {0, 2, 4}, 2: {10, 20, 30}, 3: {40, 50, 60},
	}
	ws := newFullWorkspace()
	var alg Algorithm = NewEAR()
	var prev *Tables
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev = ws.ComputeInto(alg, state, dests, prev).Tables
	}
}

// BenchmarkBuildTables16x16 times phase 3 alone: route selection over a
// fixed 16x16 EAR phase 2 with checkerboard duplicates (Σ|S_i| = K), into a
// reused table buffer. It must report 0 allocs/op.
func BenchmarkBuildTables16x16(b *testing.B) {
	mesh := topology.MustMesh(16, 16, 1)
	state := fullState(mesh.Graph, 8)
	for n := range state.Status {
		state.Status[n].BatteryLevel = 1 + n%7
	}
	sp := allPairs(weights(NewEAR(), state))
	dests := checkerboardDests(mesh.Graph)
	var ds destSet
	var out Tables
	buildTablesInto(&out, state, sp, dests, &ds, nil) // size the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildTablesInto(&out, state, sp, dests, &ds, nil)
	}
}
