package mapping

import (
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/topology"
)

func TestCheckerboardOn4x4MatchesFig3b(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	m, err := Checkerboard{}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 3(b): 4 nodes of module 1, 4 of module 2, 8 of module 3.
	if len(m.NodesFor(1)) != 4 || len(m.NodesFor(2)) != 4 || len(m.NodesFor(3)) != 8 {
		t.Fatalf("counts = %v, want module1=4 module2=4 module3=8", []int{len(m.NodesFor(1)), len(m.NodesFor(2)), len(m.NodesFor(3))})
	}
	// Spot-check specific coordinates against the paper's figure:
	// (1,1) both odd -> module 1; (2,2) both even -> module 2; (2,1) -> module 3.
	checks := []struct {
		x, y int
		want app.ModuleID
	}{
		{1, 1, 1}, {3, 3, 1}, {2, 2, 2}, {4, 4, 2}, {2, 1, 3}, {1, 2, 3}, {4, 3, 3},
	}
	for _, c := range checks {
		id, ok := mesh.NodeAt(topology.Coord{X: c.x, Y: c.y})
		if !ok {
			t.Fatalf("no node at (%d,%d)", c.x, c.y)
		}
		if got := m.ModuleAt(id); got != c.want {
			t.Errorf("node (%d,%d) mapped to module %d, want %d", c.x, c.y, got, c.want)
		}
	}
	if assignedNodes(m) != 16 {
		t.Errorf("assigned nodes = %d, want 16", assignedNodes(m))
	}
	if err := m.Validate(appl, 16); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCheckerboardModule3GetsHalfTheNodes(t *testing.T) {
	// For any even-sized mesh the checkerboard rule gives module 3 exactly
	// half the nodes, the paper's approximation of the Theorem-1 rule.
	for _, n := range []int{4, 6, 8} {
		mesh := topology.MustMesh(n, n, 1)
		m, err := Checkerboard{}.Map(mesh.Graph, app.AES128())
		if err != nil {
			t.Fatal(err)
		}
		if len(m.NodesFor(3)) != n*n/2 {
			t.Errorf("%dx%d: module 3 count = %d, want %d", n, n, len(m.NodesFor(3)), n*n/2)
		}
	}
}

func TestCheckerboardRequiresThreeModules(t *testing.T) {
	b := app.NewBuilder("two-module")
	m1 := b.AddModule("a", 10)
	m2 := b.AddModule("b", 20)
	appl, err := b.Step(m1).Step(m2).Build()
	if err != nil {
		t.Fatal(err)
	}
	mesh := topology.MustMesh(4, 4, 1)
	if _, err := (Checkerboard{}).Map(mesh.Graph, appl); err == nil {
		t.Fatal("checkerboard accepted a non-3-module application")
	}
}

func TestCheckerboardOddMeshStillCoversAllModules(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		mesh := topology.MustMesh(n, n, 1)
		m, err := Checkerboard{}.Map(mesh.Graph, app.AES128())
		if err != nil {
			t.Fatalf("%dx%d: %v", n, n, err)
		}
		for id := app.ModuleID(1); id <= 3; id++ {
			if len(m.NodesFor(id)) == 0 {
				t.Errorf("%dx%d: module %d has no duplicates", n, n, id)
			}
		}
		total := len(m.NodesFor(1)) + len(m.NodesFor(2)) + len(m.NodesFor(3))
		if total != n*n {
			t.Errorf("%dx%d: assigned %d nodes, want %d", n, n, total, n*n)
		}
	}
}

func TestProportionalFollowsWeights(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	// Use the AES normalized-energy-like weights: module 3 heaviest.
	weights := []float64{2368.0, 1710.4, 3225.8}
	m, err := Proportional{Weights: weights}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	if assignedNodes(m) != 16 {
		t.Fatalf("assigned nodes = %d, want 16", assignedNodes(m))
	}
	// Theorem 1 exact shares: 5.19, 3.75, 7.07 -> expect counts close to 5/4/7.
	if len(m.NodesFor(3)) < len(m.NodesFor(1)) || len(m.NodesFor(1)) < len(m.NodesFor(2)) {
		t.Errorf("counts %v do not follow weight ordering", []int{len(m.NodesFor(1)), len(m.NodesFor(2)), len(m.NodesFor(3))})
	}
	if len(m.NodesFor(1))+len(m.NodesFor(2))+len(m.NodesFor(3)) != 16 {
		t.Errorf("counts %v do not sum to 16", []int{len(m.NodesFor(1)), len(m.NodesFor(2)), len(m.NodesFor(3))})
	}
	for id := app.ModuleID(1); id <= 3; id++ {
		if len(m.NodesFor(id)) == 0 {
			t.Errorf("module %d has zero duplicates", id)
		}
	}
}

func TestProportionalValidation(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	if _, err := (Proportional{Weights: []float64{1, 2}}).Map(mesh.Graph, appl); err == nil {
		t.Error("wrong number of weights accepted")
	}
	if _, err := (Proportional{Weights: []float64{1, -1, 2}}).Map(mesh.Graph, appl); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := (Proportional{Weights: []float64{1, 0, 2}}).Map(mesh.Graph, appl); err == nil {
		t.Error("zero weight accepted")
	}
	tiny := topology.MustMesh(1, 2, 1)
	if _, err := (Proportional{Weights: []float64{1, 1, 1}}).Map(tiny.Graph, appl); err == nil {
		t.Error("graph smaller than module count accepted")
	}
}

func TestProportionalInterleavesDuplicates(t *testing.T) {
	// Error diffusion should avoid putting all duplicates of a module in one
	// contiguous block: in a 4x4 mesh with equal weights, no single row may
	// contain four nodes of the same module.
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	m, err := Proportional{Weights: []float64{1, 1, 1}}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	for y := 1; y <= 4; y++ {
		rowCounts := map[app.ModuleID]int{}
		for x := 1; x <= 4; x++ {
			id, _ := mesh.NodeAt(topology.Coord{X: x, Y: y})
			rowCounts[m.ModuleAt(id)]++
		}
		for mod, c := range rowCounts {
			if c == 4 {
				t.Errorf("row %d is entirely module %d; duplicates are not interleaved", y, mod)
			}
		}
	}
}

func TestRowMajorBlocksProportionalToOps(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	m, err := RowMajor{}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	// f = (10, 9, 11) over 16 nodes -> roughly 5/5/6.
	if len(m.NodesFor(1))+len(m.NodesFor(2))+len(m.NodesFor(3)) != 16 {
		t.Fatalf("counts %v do not sum to 16", []int{len(m.NodesFor(1)), len(m.NodesFor(2)), len(m.NodesFor(3))})
	}
	for id := app.ModuleID(1); id <= 3; id++ {
		if len(m.NodesFor(id)) < 4 || len(m.NodesFor(id)) > 7 {
			t.Errorf("module %d count = %d, want between 4 and 7", id, len(m.NodesFor(id)))
		}
	}
	// Row-major clustering: the first row must be homogeneous.
	first, _ := mesh.NodeAt(topology.Coord{X: 1, Y: 1})
	mod := m.ModuleAt(first)
	for x := 2; x <= 4; x++ {
		id, _ := mesh.NodeAt(topology.Coord{X: x, Y: 1})
		if m.ModuleAt(id) != mod {
			t.Errorf("row-major mapping is not clustered in the first row")
		}
	}
}

func TestRandomMappingIsDeterministicPerSeed(t *testing.T) {
	mesh := topology.MustMesh(5, 5, 1)
	appl := app.AES128()
	m1, err := Random{Seed: 42}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Random{Seed: 42}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Random{Seed: 7}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	differs := false
	for _, n := range mesh.Nodes() {
		if m1.ModuleAt(n.ID) != m2.ModuleAt(n.ID) {
			same = false
		}
		if m1.ModuleAt(n.ID) != m3.ModuleAt(n.ID) {
			differs = true
		}
	}
	if !same {
		t.Error("same seed produced different mappings")
	}
	if !differs {
		t.Error("different seeds produced identical mappings (suspicious)")
	}
	for id := app.ModuleID(1); id <= 3; id++ {
		if len(m1.NodesFor(id)) == 0 {
			t.Errorf("module %d has no duplicates under random mapping", id)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	if (Checkerboard{}).Name() != "checkerboard" {
		t.Error("Checkerboard name wrong")
	}
	if (Proportional{}).Name() != "theorem1-proportional" {
		t.Error("Proportional name wrong")
	}
	if (RowMajor{}).Name() != "row-major-blocks" {
		t.Error("RowMajor name wrong")
	}
	if (Random{Seed: 3}).Name() != "random(seed=3)" {
		t.Error("Random name wrong")
	}
}

func TestMappingValidate(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	m, err := Checkerboard{}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(appl, 16); err != nil {
		t.Errorf("Validate on the mapping's own graph: %v", err)
	}
	if err := m.Validate(appl, 15); err == nil {
		t.Error("mapping validated against a graph of another node count")
	}
	// A mapping built for a 5x5 graph names nodes a 4x4 graph does not have.
	big := make([]app.ModuleID, 25)
	big[22], big[23], big[24] = 1, 2, 3
	m, err = Explicit{Assign: big}.Map(topology.MustMesh(5, 5, 1).Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(appl, 16); err == nil {
		t.Error("mapping naming nodes 22..24 accepted for a 16-node graph")
	}
	// The constructor rejects a placement missing a module or naming an
	// unknown one.
	if _, err := newMapping([]app.ModuleID{1, 2, 0, 0}, 4, appl); err == nil {
		t.Error("mapping without module 3 accepted")
	}
	if _, err := newMapping([]app.ModuleID{1, 2, 3, 9}, 4, appl); err == nil {
		t.Error("mapping with unknown module accepted")
	}
	if _, err := newMapping([]app.ModuleID{1, 2, 3}, 4, appl); err == nil {
		t.Error("mapping covering 3 of 4 nodes accepted")
	}
}

func TestUnassignedNodesAreIgnored(t *testing.T) {
	m, err := newMapping([]app.ModuleID{1, 2, 3, Unassigned}, 4, app.AES128())
	if err != nil {
		t.Fatal(err)
	}
	if assignedNodes(m) != 3 {
		t.Fatalf("assigned nodes = %d, want 3", assignedNodes(m))
	}
	if m.ModuleAt(3) != Unassigned {
		t.Errorf("node 3 module = %d, want Unassigned", m.ModuleAt(3))
	}
	if m.ModuleAt(99) != Unassigned || m.ModuleAt(-1) != Unassigned {
		t.Errorf("unknown node modules = %d, %d, want Unassigned", m.ModuleAt(99), m.ModuleAt(-1))
	}
	if len(m.NodesFor(Unassigned)) != 0 {
		t.Errorf("NodesFor(Unassigned) = %v, want none", m.NodesFor(Unassigned))
	}
}

func TestNodesForReturnsSortedCopy(t *testing.T) {
	assign := make([]app.ModuleID, 10)
	assign[9], assign[2], assign[5], assign[3], assign[0] = 1, 1, 1, 2, 3
	m, err := newMapping(assign, 10, app.AES128())
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.NodesFor(1)
	want := []topology.NodeID{2, 5, 9}
	if len(nodes) != 3 {
		t.Fatalf("NodesFor(1) = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("NodesFor(1) = %v, want %v", nodes, want)
		}
	}
	nodes[0] = 77
	if m.NodesFor(1)[0] == 77 {
		t.Fatal("mutating NodesFor result changed mapping state")
	}
	if len(m.NodesFor(9)) != 0 {
		t.Fatal("NodesFor of unknown module should be empty")
	}
}

// assignedNodes counts the nodes that run a module.
func assignedNodes(m *Mapping) int {
	n := 0
	for _, mod := range m.assign {
		if mod != Unassigned {
			n++
		}
	}
	return n
}

func TestAllStrategiesSatisfyBudgetProperty(t *testing.T) {
	appl := app.AES128()
	strategies := []Strategy{
		Checkerboard{},
		Proportional{Weights: []float64{2368, 1710, 3226}},
		RowMajor{},
		Random{Seed: 99},
	}
	prop := func(sizeRaw uint8, stratIdx uint8) bool {
		n := int(sizeRaw%6) + 3 // 3..8
		mesh := topology.MustMesh(n, n, 1)
		s := strategies[int(stratIdx)%len(strategies)]
		m, err := s.Map(mesh.Graph, appl)
		if err != nil {
			return false
		}
		total := 0
		for id := app.ModuleID(1); id <= 3; id++ {
			if len(m.NodesFor(id)) == 0 {
				return false
			}
			total += len(m.NodesFor(id))
		}
		return total <= mesh.Size() && m.Validate(appl, mesh.Size()) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitRoundTrip(t *testing.T) {
	mesh := topology.MustMesh(4, 4, 1)
	appl := app.AES128()
	// Derive a reference assignment from the checkerboard mapping, express it
	// as an Explicit strategy, and check the text form round-trips exactly.
	ref, err := Checkerboard{}.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	e := Explicit{Assign: make([]app.ModuleID, mesh.NodeCount())}
	for _, n := range mesh.Nodes() {
		e.Assign[n.ID] = ref.ModuleAt(n.ID)
	}
	parsed, err := ParseExplicit(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Assign) != len(e.Assign) {
		t.Fatalf("round trip length = %d, want %d", len(parsed.Assign), len(e.Assign))
	}
	for i := range e.Assign {
		if parsed.Assign[i] != e.Assign[i] {
			t.Fatalf("round trip changed node %d: %d != %d", i, parsed.Assign[i], e.Assign[i])
		}
	}
	// The materialised mapping is identical to the reference.
	m, err := parsed.Map(mesh.Graph, appl)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range mesh.Nodes() {
		if m.ModuleAt(n.ID) != ref.ModuleAt(n.ID) {
			t.Fatalf("node %d: explicit mapping %d != checkerboard %d", n.ID, m.ModuleAt(n.ID), ref.ModuleAt(n.ID))
		}
	}
	if (Explicit{}).Name() != "explicit" {
		t.Error("Explicit name wrong")
	}
}

func TestExplicitValidation(t *testing.T) {
	mesh := topology.MustMesh(2, 2, 1)
	appl := app.AES128() // 3 modules
	cases := []struct {
		name   string
		assign []app.ModuleID
	}{
		{"too short", []app.ModuleID{1, 2, 3}},
		{"too long", []app.ModuleID{1, 2, 3, 1, 2}},
		{"unknown module", []app.ModuleID{1, 2, 3, 9}},
		{"missing module", []app.ModuleID{1, 1, 2, 2}},
	}
	for _, c := range cases {
		if _, err := (Explicit{Assign: c.assign}).Map(mesh.Graph, appl); err == nil {
			t.Errorf("%s: Map accepted invalid assignment %v", c.name, c.assign)
		}
	}
	// Unassigned (0) nodes are allowed as long as every module is placed.
	ok := []app.ModuleID{0, 1, 2, 3}
	m, err := (Explicit{Assign: ok}).Map(mesh.Graph, appl)
	if err != nil {
		t.Fatalf("Map rejected valid assignment with a relay-only node: %v", err)
	}
	if assignedNodes(m) != 3 {
		t.Errorf("assigned nodes = %d, want 3", assignedNodes(m))
	}
	// The mapping owns its assignment: editing the strategy's slice later
	// does not move it.
	ok[0] = 3
	if m.ModuleAt(0) != Unassigned {
		t.Errorf("node 0 module = %d after editing the Explicit slice, want Unassigned", m.ModuleAt(0))
	}
}

func TestParseExplicitErrors(t *testing.T) {
	for _, s := range []string{"", "1,,2", "1,x,2", "1,-2,3", "1, 2,"} {
		if _, err := ParseExplicit(s); err == nil {
			t.Errorf("ParseExplicit(%q) accepted a malformed assignment", s)
		}
	}
	// Whitespace around entries is tolerated.
	e, err := ParseExplicit(" 1, 2 ,3 ")
	if err != nil {
		t.Fatalf("ParseExplicit with spaces: %v", err)
	}
	if len(e.Assign) != 3 || e.Assign[0] != 1 || e.Assign[1] != 2 || e.Assign[2] != 3 {
		t.Errorf("ParseExplicit with spaces = %v", e.Assign)
	}
}
