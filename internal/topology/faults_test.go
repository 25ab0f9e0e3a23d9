package topology

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestRemoveLink(t *testing.T) {
	m := MustMesh(3, 3, 1)
	a, _ := m.NodeAt(Coord{X: 1, Y: 1})
	b, _ := m.NodeAt(Coord{X: 2, Y: 1})
	before := len(m.Links())
	if err := m.RemoveLink(a, b); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Link(a, b); ok {
		t.Fatal("link still present after removal")
	}
	if _, ok := m.Link(b, a); !ok {
		t.Fatal("reverse link should still exist after a one-way removal")
	}
	if len(m.Links()) != before-1 {
		t.Fatalf("%d links, want %d", len(m.Links()), before-1)
	}
	if err := m.RemoveLink(a, b); !errors.Is(err, ErrLinkNotFound) {
		t.Fatalf("second removal error = %v, want ErrLinkNotFound", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("graph invalid after removal: %v", err)
	}
	// Neighbour lists must no longer mention the removed link.
	for _, l := range m.OutLinks(a) {
		if l.To == b {
			t.Fatal("removed link still listed in OutLinks")
		}
	}
}

func TestRemoveBiLink(t *testing.T) {
	m := MustMesh(2, 2, 1)
	a, _ := m.NodeAt(Coord{X: 1, Y: 1})
	b, _ := m.NodeAt(Coord{X: 2, Y: 1})
	if err := m.RemoveBiLink(a, b); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Link(a, b); ok {
		t.Error("forward link survived RemoveBiLink")
	}
	if _, ok := m.Link(b, a); ok {
		t.Error("reverse link survived RemoveBiLink")
	}
	if err := m.RemoveBiLink(a, b); err == nil {
		t.Error("removing a missing bidirectional link should fail")
	}
	// The 2x2 mesh without one edge is still connected via the other path.
	if !m.Connected() {
		t.Error("2x2 mesh should survive a single bidirectional link failure")
	}
}

func TestFailLinksPreservesConnectivity(t *testing.T) {
	for _, fraction := range []float64{0.1, 0.25, 0.4} {
		m := MustMesh(6, 6, 1)
		before := len(m.Links())
		removed, shortfall, err := FailLinks(m.Graph, fraction, 7)
		if err != nil {
			t.Fatalf("fraction %g: %v", fraction, err)
		}
		if len(removed) == 0 {
			t.Errorf("fraction %g removed no links", fraction)
		}
		// Accounting invariant: removals plus reported shortfall equal the
		// requested target.
		if target := int(float64(before/2) * fraction); len(removed)+shortfall != target {
			t.Errorf("fraction %g: removed %d + shortfall %d != target %d",
				fraction, len(removed), shortfall, target)
		}
		if len(m.Links()) != before-2*len(removed) {
			t.Errorf("fraction %g: link count %d, want %d", fraction, len(m.Links()), before-2*len(removed))
		}
		if !m.Connected() {
			t.Errorf("fraction %g: fault injection disconnected the mesh", fraction)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("fraction %g: %v", fraction, err)
		}
	}
}

func TestFailLinksDeterministicPerSeed(t *testing.T) {
	m1 := MustMesh(5, 5, 1)
	m2 := MustMesh(5, 5, 1)
	r1, _, err := FailLinks(m1.Graph, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := FailLinks(m2.Graph, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("same seed removed %d vs %d links", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("same seed removed different links at index %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	m3 := MustMesh(5, 5, 1)
	r3, _, err := FailLinks(m3.Graph, 0.2, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(r1) == len(r3)
	if same {
		for i := range r1 {
			if r1[i] != r3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns (suspicious)")
	}
}

func TestFailLinksValidation(t *testing.T) {
	m := MustMesh(3, 3, 1)
	if _, _, err := FailLinks(m.Graph, -0.1, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, _, err := FailLinks(m.Graph, 1.0, 1); err == nil {
		t.Error("fraction 1.0 accepted")
	}
	removed, shortfall, err := FailLinks(m.Graph, 0, 1)
	if err != nil || removed != nil || shortfall != 0 {
		t.Errorf("zero fraction: removed %v, shortfall %d, err %v", removed, shortfall, err)
	}
}

// TestFailLinksNearSaturationReportsShortfall pins the silent-shortfall fix:
// on a 2xN ladder almost every link is a bridge once a few rungs are gone,
// so a near-1 fraction cannot possibly land — FailLinks must stay connected
// AND report exactly how many targeted removals it had to skip, instead of
// silently delivering a fraction of the requested damage.
func TestFailLinksNearSaturationReportsShortfall(t *testing.T) {
	m := MustMesh(2, 8, 1)
	undirected := len(m.Links()) / 2
	removed, shortfall, err := FailLinks(m.Graph, 0.99, 3)
	if err != nil {
		t.Fatal(err)
	}
	target := int(float64(undirected) * 0.99)
	if len(removed)+shortfall != target {
		t.Fatalf("removed %d + shortfall %d != target %d", len(removed), shortfall, target)
	}
	if shortfall == 0 {
		t.Fatalf("near-saturation fraction reported no shortfall (removed %d of %d undirected links)",
			len(removed), undirected)
	}
	// The graph must keep a spanning tree: 2*8 nodes need 15 undirected links.
	if kept := undirected - len(removed); kept < 15 {
		t.Fatalf("only %d undirected links survive — below spanning-tree minimum", kept)
	}
	if !m.Connected() {
		t.Fatal("near-saturation fault injection disconnected the ladder")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailLinksConnectivityProperty(t *testing.T) {
	prop := func(seed uint16, fracRaw uint8) bool {
		m := MustMesh(5, 4, 1)
		fraction := float64(fracRaw%50) / 100.0
		if _, _, err := FailLinks(m.Graph, fraction, uint64(seed)); err != nil {
			return false
		}
		return m.Connected() && m.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
