package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refGraph is a map-based reference model of Graph: the link set as a map
// keyed by (from, to), and each node's out-neighbours in insertion order.
// It spells out the behaviour the slice-indexed Graph must keep.
type refGraph struct {
	n     int
	links map[[2]NodeID]float64
	order [][]NodeID
}

var errRefFraction = errors.New("reference: failure fraction out of range")

// newRefMesh builds the model of a width x height mesh the way the paper's
// platform is wired: rows top to bottom, each node linked to its right and
// then its lower neighbour, each link added in both directions.
func newRefMesh(width, height int, spacingCM float64) *refGraph {
	r := &refGraph{n: width * height, links: map[[2]NodeID]float64{}, order: make([][]NodeID, width*height)}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			id := NodeID(y*width + x)
			if x+1 < width {
				r.addBiLink(id, id+1, spacingCM)
			}
			if y+1 < height {
				r.addBiLink(id, id+NodeID(width), spacingCM)
			}
		}
	}
	return r
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{n: r.n, links: map[[2]NodeID]float64{}, order: make([][]NodeID, r.n)}
	for k, v := range r.links {
		c.links[k] = v
	}
	for id, o := range r.order {
		c.order[id] = slices.Clone(o)
	}
	return c
}

func (r *refGraph) has(id NodeID) bool { return id >= 0 && int(id) < r.n }

func (r *refGraph) addLink(from, to NodeID, lengthCM float64) error {
	switch {
	case !r.has(from) || !r.has(to):
		return ErrUnknownNode
	case from == to:
		return ErrSelfLink
	case lengthCM <= 0:
		return ErrBadLength
	}
	if _, ok := r.links[[2]NodeID{from, to}]; ok {
		return ErrDuplicateLink
	}
	r.links[[2]NodeID{from, to}] = lengthCM
	r.order[from] = append(r.order[from], to)
	return nil
}

func (r *refGraph) addBiLink(a, b NodeID, lengthCM float64) error {
	if err := r.addLink(a, b, lengthCM); err != nil {
		return err
	}
	return r.addLink(b, a, lengthCM)
}

func (r *refGraph) removeLink(from, to NodeID) error {
	if _, ok := r.links[[2]NodeID{from, to}]; !ok {
		return ErrLinkNotFound
	}
	delete(r.links, [2]NodeID{from, to})
	r.order[from] = slices.DeleteFunc(r.order[from], func(n NodeID) bool { return n == to })
	return nil
}

func (r *refGraph) removeBiLink(a, b NodeID) error {
	if err := r.removeLink(a, b); err != nil {
		return err
	}
	return r.removeLink(b, a)
}

// sorted lists the links ordered by (From, To).
func (r *refGraph) sorted() []Link {
	var out []Link
	for k, v := range r.links {
		out = append(out, Link{From: k[0], To: k[1], LengthCM: v})
	}
	slices.SortFunc(out, func(a, b Link) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	return out
}

func (r *refGraph) connected() bool {
	if r.n == 0 {
		return true
	}
	seen := map[NodeID]bool{0: true}
	queue := []NodeID{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range r.order[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == r.n
}

// failLinks is FailLinks' documented procedure on the model: shuffle the
// undirected links (From < To) with the seeded generator, then remove them
// in that order until the target is met, putting back any removal that
// disconnects the fabric.
func (r *refGraph) failLinks(fraction float64, seed uint64) ([]Link, int, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, 0, errRefFraction
	}
	if fraction == 0 {
		return nil, 0, nil
	}
	var undirected []Link
	for _, l := range r.sorted() {
		if l.From < l.To {
			undirected = append(undirected, l)
		}
	}
	target := int(float64(len(undirected)) * fraction)
	state := seed*6364136223846793005 + 1442695040888963407
	for i := len(undirected) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> 33) % uint64(i+1))
		undirected[i], undirected[j] = undirected[j], undirected[i]
	}
	var removed []Link
	for _, l := range undirected {
		if len(removed) >= target {
			break
		}
		if err := r.removeBiLink(l.From, l.To); err != nil {
			return removed, target - len(removed), err
		}
		if r.connected() {
			removed = append(removed, l)
			continue
		}
		if err := r.addBiLink(l.From, l.To, l.LengthCM); err != nil {
			return removed, target - len(removed), err
		}
	}
	return removed, target - len(removed), nil
}

// matchRef reports the first way g differs from the model: its links,
// every node's out-list order, every Link lookup (unknown IDs included),
// connectivity and the structural invariants.
func matchRef(t *testing.T, step string, g *Graph, r *refGraph) {
	t.Helper()
	if got, want := g.Links(), r.sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: Links() = %v, want %v", step, got, want)
	}
	for id := NodeID(-1); int(id) <= r.n; id++ {
		var want []Link
		if r.has(id) {
			for _, to := range r.order[id] {
				want = append(want, Link{From: id, To: to, LengthCM: r.links[[2]NodeID{id, to}]})
			}
		}
		if got := g.OutLinks(id); !slices.Equal(got, want) {
			t.Fatalf("%s: OutLinks(%d) = %v, want %v", step, id, got, want)
		}
		for to := NodeID(-1); int(to) <= r.n; to++ {
			v, ok := r.links[[2]NodeID{id, to}]
			want := Link{}
			if ok {
				want = Link{From: id, To: to, LengthCM: v}
			}
			if got, gotOK := g.Link(id, to); got != want || gotOK != ok {
				t.Fatalf("%s: Link(%d, %d) = %v, %v, want %v, %v", step, id, to, got, gotOK, want, ok)
			}
		}
	}
	if got, want := g.Connected(), r.connected(); got != want {
		t.Fatalf("%s: Connected() = %v, want %v", step, got, want)
	}
	if err := validate(g); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

func sameErr(got, want error) bool {
	if want == nil || want == errRefFraction {
		return (got == nil) == (want == nil)
	}
	return errors.Is(got, want)
}

// checkGraphOps decodes data into a mesh of 1x1 to 8x8 and a sequence of
// AddLink, AddBiLink, RemoveLink, RemoveBiLink, Clone and FailLinks calls,
// runs it on a Graph and on the reference model, and fails at the first
// difference in state or error. Node operands range over -1..K so unknown
// IDs are exercised; lengths include zero and negative values. A clone
// continues the sequence while its source is set aside, and every
// set-aside graph must still equal its model at the end.
func checkGraphOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	w, h := int(data[0]%8)+1, int(data[1]%8)+1
	data = data[2:]
	m, err := NewMesh(w, h, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	g, r := m.Graph, newRefMesh(w, h, 1.5)
	matchRef(t, "mesh", g, r)
	type pair struct {
		g *Graph
		r *refGraph
	}
	var retired []pair
	k := w * h
	node := func(b byte) NodeID { return NodeID(int(b)%(k+2)) - 1 }
	for step := 0; len(data) >= 4; step++ {
		op, x, y, c := data[0]%6, data[1], data[2], data[3]
		data = data[4:]
		a, b := node(x), node(y)
		length := float64(int(c%4)-1) * 0.75
		var got, want error
		switch op {
		case 0:
			got, want = g.AddLink(a, b, length), r.addLink(a, b, length)
		case 1:
			got, want = g.AddBiLink(a, b, length), r.addBiLink(a, b, length)
		case 2:
			got, want = g.RemoveLink(a, b), r.removeLink(a, b)
		case 3:
			got, want = g.RemoveBiLink(a, b), r.removeBiLink(a, b)
		case 4:
			retired = append(retired, pair{g, r.clone()})
			g = g.Clone()
		case 5:
			fraction := float64(c%12) / 10 // 1.0 and 1.1 are out of range
			seed := uint64(x)<<8 | uint64(y)
			gotRemoved, gotShort, gerr := FailLinks(g, fraction, seed)
			wantRemoved, wantShort, rerr := r.failLinks(fraction, seed)
			got, want = gerr, rerr
			if !slices.Equal(gotRemoved, wantRemoved) || gotShort != wantShort {
				t.Fatalf("step %d: FailLinks(%g, %d) = %v, %d, want %v, %d",
					step, fraction, seed, gotRemoved, gotShort, wantRemoved, wantShort)
			}
		}
		if !sameErr(got, want) {
			t.Fatalf("step %d (op %d on %d, %d): error %v, want %v", step, op, a, b, got, want)
		}
		matchRef(t, fmt.Sprintf("step %d", step), g, r)
	}
	for i, p := range retired {
		matchRef(t, fmt.Sprintf("set-aside graph %d", i), p.g, p.r)
	}
}

// FuzzGraphOps holds Graph to the reference model on the operation
// sequences checkGraphOps decodes.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{3, 3, 2, 1, 2, 0, 0, 1, 2, 1, 4, 0, 0, 0, 5, 1, 2, 3})
	f.Add([]byte{7, 7, 5, 3, 9, 4, 4, 0, 0, 0, 5, 10, 20, 5, 3, 10, 11, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 2, 1, 0, 0})
	f.Add([]byte{0, 5, 3, 1, 2, 0, 0, 1, 2, 2, 4, 0, 0, 0, 3, 1, 2, 0, 5, 2, 3, 9})
	f.Fuzz(checkGraphOps)
}

// TestGraphMatchesReferenceModel runs seeded random operation sequences
// over every mesh size from 1x1 to 8x8 through the fuzz target's checker.
func TestGraphMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 8; w++ {
		for h := 0; h < 8; h++ {
			for rep := 0; rep < 4; rep++ {
				data := make([]byte, 2+4*40)
				rng.Read(data)
				data[0], data[1] = byte(w), byte(h)
				checkGraphOps(t, data)
			}
		}
	}
}

// TestMeshAndCloneAllocateConstantly holds NewSquareMesh and Clone to a
// fixed number of allocations whatever the mesh size: the node and link
// arrays are allocated whole, never grown link by link.
func TestMeshAndCloneAllocateConstantly(t *testing.T) {
	const wantMesh, wantClone = 6, 5
	for _, n := range []int{4, 16, 64} {
		mesh := testing.AllocsPerRun(50, func() {
			if _, err := NewSquareMesh(n); err != nil {
				t.Fatal(err)
			}
		})
		g := MustMesh(n, n, 1).Graph
		clone := testing.AllocsPerRun(50, func() { _ = g.Clone() })
		if mesh != wantMesh || clone != wantClone {
			t.Errorf("%dx%d: NewSquareMesh %.0f allocs, Clone %.0f, want %d and %d",
				n, n, mesh, clone, wantMesh, wantClone)
		}
	}
}
