package topology

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		id, err := g.AddNode(Coord{X: i, Y: 0})
		if err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
		if id != NodeID(i) {
			t.Fatalf("AddNode returned ID %d, want %d", id, i)
		}
	}
	if g.NodeCount() != 5 {
		t.Fatalf("NodeCount = %d, want 5", g.NodeCount())
	}
}

func TestAddNodeRejectsDuplicateCoordinate(t *testing.T) {
	g := New()
	if _, err := g.AddNode(Coord{X: 1, Y: 1}); err != nil {
		t.Fatalf("first AddNode: %v", err)
	}
	if _, err := g.AddNode(Coord{X: 1, Y: 1}); !errors.Is(err, ErrDuplicateCoord) {
		t.Fatalf("duplicate AddNode error = %v, want ErrDuplicateCoord", err)
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New()
	a, _ := g.AddNode(Coord{X: 0, Y: 0})
	b, _ := g.AddNode(Coord{X: 1, Y: 0})

	tests := []struct {
		name    string
		from    NodeID
		to      NodeID
		length  float64
		wantErr error
	}{
		{"unknown source", 99, b, 1, ErrUnknownNode},
		{"unknown destination", a, 99, 1, ErrUnknownNode},
		{"self link", a, a, 1, ErrSelfLink},
		{"zero length", a, b, 0, ErrBadLength},
		{"negative length", a, b, -2, ErrBadLength},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddLink(tc.from, tc.to, tc.length); !errors.Is(err, tc.wantErr) {
				t.Fatalf("AddLink error = %v, want %v", err, tc.wantErr)
			}
		})
	}

	if err := g.AddLink(a, b, 1); err != nil {
		t.Fatalf("valid AddLink: %v", err)
	}
	if err := g.AddLink(a, b, 1); !errors.Is(err, ErrDuplicateLink) {
		t.Fatalf("duplicate AddLink error = %v, want ErrDuplicateLink", err)
	}
}

func TestAddBiLinkCreatesBothDirections(t *testing.T) {
	g := New()
	a, _ := g.AddNode(Coord{X: 0, Y: 0})
	b, _ := g.AddNode(Coord{X: 1, Y: 0})
	if err := g.AddBiLink(a, b, 2.5); err != nil {
		t.Fatalf("AddBiLink: %v", err)
	}
	if _, ok := g.Link(a, b); !ok {
		t.Error("link a->b missing")
	}
	if _, ok := g.Link(b, a); !ok {
		t.Error("link b->a missing")
	}
	if len(g.Links()) != 2 {
		t.Errorf("%d links, want 2", len(g.Links()))
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New()
	a, _ := g.AddNode(Coord{X: 0, Y: 0})
	b, _ := g.AddNode(Coord{X: 1, Y: 0})
	c, _ := g.AddNode(Coord{X: 2, Y: 0})
	if err := g.AddLink(a, c, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(a, b, 1); err != nil {
		t.Fatal(err)
	}
	// OutLinks keeps the insertion order.
	got := g.OutLinks(a)
	if len(got) != 2 || got[0].To != c || got[1].To != b || got[0].From != a || got[1].From != a {
		t.Fatalf("OutLinks(a) = %v, want a->%d then a->%d", got, c, b)
	}
	if got := g.OutLinks(b); len(got) != 0 {
		t.Fatalf("OutLinks(b) = %v, want none", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = g.OutLinks(a) }); allocs != 0 {
		t.Fatalf("OutLinks allocated %.1f times per call, want 0", allocs)
	}
}

func TestNodeLookupErrors(t *testing.T) {
	g := New()
	if _, err := g.Node(0); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Node(0) on empty graph error = %v, want ErrUnknownNode", err)
	}
	if g.Has(-1) || g.Has(0) {
		t.Fatal("Has reported membership for nodes that do not exist")
	}
}

func TestCoordinatePanicsOnUnknownNode(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Coordinate did not panic for unknown node")
		}
	}()
	g.Coordinate(3)
}

func TestConnectedFromRespectsKeepSet(t *testing.T) {
	// a <-> b <-> c, where removing b disconnects a from c.
	g := New()
	a, _ := g.AddNode(Coord{X: 0, Y: 0})
	b, _ := g.AddNode(Coord{X: 1, Y: 0})
	c, _ := g.AddNode(Coord{X: 2, Y: 0})
	if err := g.AddBiLink(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBiLink(b, c, 1); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	keep := map[NodeID]bool{a: true, c: true}
	if g.ConnectedFrom(a, keep) {
		t.Fatal("a and c should be disconnected once b is excluded")
	}
	keep[b] = true
	if !g.ConnectedFrom(a, keep) {
		t.Fatal("a, b, c should be connected when all are kept")
	}
	if g.ConnectedFrom(a, map[NodeID]bool{b: true, c: true}) {
		t.Fatal("source excluded from keep set must not be reported connected")
	}
}

func TestMeshConstruction4x4(t *testing.T) {
	m, err := NewMesh(4, 4, 1)
	if err != nil {
		t.Fatalf("NewMesh: %v", err)
	}
	if m.Size() != 16 || m.NodeCount() != 16 {
		t.Fatalf("mesh size = %d nodes, want 16", m.NodeCount())
	}
	// 2*w*h - w - h undirected edges, times two for directed links.
	wantLinks := 2 * (2*4*4 - 4 - 4)
	if len(m.Links()) != wantLinks {
		t.Fatalf("%d links, want %d", len(m.Links()), wantLinks)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !m.Connected() {
		t.Fatal("mesh must be connected")
	}
	// Corner nodes have degree 2, edges 3, interior 4.
	corner, _ := m.NodeAt(Coord{X: 1, Y: 1})
	edge, _ := m.NodeAt(Coord{X: 2, Y: 1})
	inner, _ := m.NodeAt(Coord{X: 2, Y: 2})
	if d := len(m.OutLinks(corner)); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
	if d := len(m.OutLinks(edge)); d != 3 {
		t.Errorf("edge degree = %d, want 3", d)
	}
	if d := len(m.OutLinks(inner)); d != 4 {
		t.Errorf("inner degree = %d, want 4", d)
	}
}

func TestMeshRejectsInvalidArguments(t *testing.T) {
	if _, err := NewMesh(0, 4, 1); err == nil {
		t.Error("NewMesh(0,4) should fail")
	}
	if _, err := NewMesh(4, -1, 1); err == nil {
		t.Error("NewMesh(4,-1) should fail")
	}
	if _, err := NewMesh(4, 4, 0); err == nil {
		t.Error("NewMesh with zero spacing should fail")
	}
}

func TestMeshAccessors(t *testing.T) {
	m := MustMesh(5, 3, 2.0)
	if m.Size() != 15 {
		t.Fatalf("Size = %d, want 15", m.Size())
	}
	if m.SpacingCM() != 2.0 {
		t.Fatalf("SpacingCM = %g, want 2", m.SpacingCM())
	}
	if got := m.String(); got != "5x3 mesh (2 cm spacing)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSquareMeshMatchesPaperSizes(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8} {
		m, err := NewSquareMesh(n)
		if err != nil {
			t.Fatalf("NewSquareMesh(%d): %v", n, err)
		}
		if m.Size() != n*n {
			t.Errorf("NewSquareMesh(%d).Size() = %d, want %d", n, m.Size(), n*n)
		}
		if m.SpacingCM() != DefaultSpacingCM {
			t.Errorf("NewSquareMesh(%d) spacing = %g, want default", n, m.SpacingCM())
		}
	}
}

func TestMeshLinkLengthsEqualSpacing(t *testing.T) {
	m := MustMesh(3, 3, 7.5)
	for _, l := range m.Links() {
		if l.LengthCM != 7.5 {
			t.Fatalf("link %d->%d length %g, want 7.5", l.From, l.To, l.LengthCM)
		}
	}
}

func TestManhattanDistanceProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by int8) bool {
		a := Coord{X: int(ax), Y: int(ay)}
		b := Coord{X: int(bx), Y: int(by)}
		return a.Manhattan(b) == b.Manhattan(a) && a.Manhattan(a) == 0 && a.Manhattan(b) >= 0
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Fatal(err)
	}
	triangle := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Coord{X: int(ax), Y: int(ay)}
		b := Coord{X: int(bx), Y: int(by)}
		c := Coord{X: int(cx), Y: int(cy)}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshNeighborsAreManhattanAdjacent(t *testing.T) {
	m := MustMesh(6, 4, 1)
	for _, n := range m.Nodes() {
		for _, l := range m.OutLinks(n.ID) {
			nb := l.To
			if l.From != n.ID {
				t.Fatalf("out-link %v of node %d starts elsewhere", l, n.ID)
			}
			if d := n.Pos.Manhattan(m.Coordinate(nb)); d != 1 {
				t.Fatalf("neighbor %v of %v at Manhattan distance %d, want 1",
					m.Coordinate(nb), n.Pos, d)
			}
		}
	}
}

func TestMeshPropertyRandomSizes(t *testing.T) {
	prop := func(w, h uint8) bool {
		width := int(w%7) + 1
		height := int(h%7) + 1
		m, err := NewMesh(width, height, 1)
		if err != nil {
			return false
		}
		if m.NodeCount() != width*height {
			return false
		}
		wantLinks := 2 * (2*width*height - width - height)
		return len(m.Links()) == wantLinks && m.Connected() && m.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLinksAreSortedAndShared(t *testing.T) {
	m := MustMesh(2, 2, 1)
	links := m.Links()
	for i := 1; i < len(links); i++ {
		prev, cur := links[i-1], links[i]
		if prev.From > cur.From || (prev.From == cur.From && prev.To >= cur.To) {
			t.Fatalf("links not strictly sorted at index %d: %v then %v", i, prev, cur)
		}
	}
	// Links() is a zero-alloc read of the incrementally maintained slice
	// (callers must treat it as read-only), and the ordering invariant must
	// survive mutation: removing and re-adding a link keeps the slice sorted
	// and consistent with the link map.
	if allocs := testing.AllocsPerRun(10, func() { m.Links() }); allocs != 0 {
		t.Errorf("Links() allocated %.1f times per call, want 0", allocs)
	}
	victim := links[0]
	if err := m.RemoveLink(victim.From, victim.To); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLink(victim.From, victim.To, victim.LengthCM); err != nil {
		t.Fatal(err)
	}
	links = m.Links()
	if len(links) != len(m.Links()) {
		t.Fatalf("Links() has %d entries, want %d", len(links), len(m.Links()))
	}
	for i, l := range links {
		if i > 0 && (links[i-1].From > l.From || (links[i-1].From == l.From && links[i-1].To >= l.To)) {
			t.Fatalf("links not strictly sorted after remove/re-add at index %d", i)
		}
		got, ok := m.Link(l.From, l.To)
		if !ok || got != l {
			t.Fatalf("sorted slice entry %v disagrees with link map (%v, %v)", l, got, ok)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New()
	a, _ := g.AddNode(Coord{X: 0, Y: 0})
	b, _ := g.AddNode(Coord{X: 1, Y: 0})
	if err := g.AddLink(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph reported error: %v", err)
	}
	// Corrupt the link index deliberately.
	g.links[[2]NodeID{a, b}] = Link{From: a, To: b, LengthCM: -1}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed corrupted link length")
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	m := MustMesh(4, 4, 1)
	c := m.Graph.Clone()
	if c.NodeCount() != m.NodeCount() || len(c.Links()) != len(m.Links()) {
		t.Fatalf("clone shape %d nodes/%d links, want %d/%d",
			c.NodeCount(), len(c.Links()), m.NodeCount(), len(m.Links()))
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone fails validation: %v", err)
	}
	for _, l := range m.Links() {
		got, ok := c.Link(l.From, l.To)
		if !ok || got.LengthCM != l.LengthCM {
			t.Fatalf("clone missing or differing link %d -> %d", l.From, l.To)
		}
	}
	// Mutating the clone must leave the original untouched, and vice versa.
	before := len(m.Links())
	if _, _, err := FailLinks(c, 0.3, 7); err != nil {
		t.Fatal(err)
	}
	if len(c.Links()) >= before {
		t.Fatal("FailLinks removed nothing from the clone")
	}
	if len(m.Links()) != before {
		t.Fatalf("mutating the clone changed the original: %d links, want %d", len(m.Links()), before)
	}
	id, _ := m.NodeAt(Coord{X: 1, Y: 1})
	nb, _ := m.NodeAt(Coord{X: 2, Y: 1})
	if err := m.RemoveBiLink(id, nb); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Link(id, nb); !ok {
		// The clone kept this link only if FailLinks didn't happen to remove
		// it; either way the original's removal must not propagate, which is
		// what the link-count comparison below establishes.
		t.Log("link also absent from clone (removed by FailLinks)")
	}
	if len(c.Links()) == len(m.Links()) {
		t.Fatal("clone and original unexpectedly track each other")
	}
}
