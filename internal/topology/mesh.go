package topology

import "fmt"

// Mesh is a 2D mesh network, the default architecture supported by et_sim.
// Coordinates follow the paper's Fig 3(b): 1-based, (1,1) in the top-left,
// X increasing to the right and Y increasing downwards. Every pair of
// orthogonally adjacent nodes is connected by a pair of directed links of
// equal physical length.
type Mesh struct {
	*Graph
	width     int
	height    int
	spacingCM float64
}

// DefaultSpacingCM is the default physical distance between adjacent mesh
// nodes. The paper does not state the spacing explicitly; 1 cm is the
// calibration that reproduces the Table 2 upper-bound column together with
// the 261-bit packet (see DESIGN.md, "Substitutions").
const DefaultSpacingCM = 1.0

// NewMesh builds a width x height mesh with the given inter-node spacing in
// centimetres. Width and height must be at least 1 and spacing positive.
func NewMesh(width, height int, spacingCM float64) (*Mesh, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("topology: invalid mesh dimensions %dx%d", width, height)
	}
	if spacingCM <= 0 {
		return nil, fmt.Errorf("%w: %g cm", ErrBadLength, spacingCM)
	}
	// Node (x,y) has ID (y-1)*width + x-1, and its out-list is up, left,
	// right, down: the order in which linking the rows top to bottom, each
	// node to its right and lower neighbour, would add them. Those
	// neighbours' IDs increase in the same order, so the out-lists laid
	// end to end are already (From, To)-sorted.
	n := width * height
	g := &Graph{nodes: make([]Node, n), out: make([][]Link, n)}
	slots := make([]Link, 4*n)
	for y := 1; y <= height; y++ {
		for x := 1; x <= width; x++ {
			id := NodeID((y-1)*width + x - 1)
			g.nodes[id] = Node{ID: id, Pos: Coord{X: x, Y: y}}
			out := slots[4*id : 4*id : 4*id+4]
			if y > 1 {
				out = append(out, Link{From: id, To: id - NodeID(width), LengthCM: spacingCM})
			}
			if x > 1 {
				out = append(out, Link{From: id, To: id - 1, LengthCM: spacingCM})
			}
			if x < width {
				out = append(out, Link{From: id, To: id + 1, LengthCM: spacingCM})
			}
			if y < height {
				out = append(out, Link{From: id, To: id + NodeID(width), LengthCM: spacingCM})
			}
			g.out[id] = out
		}
	}
	// Each of the (w-1)·h horizontal and w·(h-1) vertical neighbour pairs
	// is two links.
	g.sorted = make([]Link, 0, 2*((width-1)*height+width*(height-1)))
	for _, out := range g.out {
		g.sorted = append(g.sorted, out...)
	}
	return &Mesh{Graph: g, width: width, height: height, spacingCM: spacingCM}, nil
}

// MustMesh is NewMesh for construction code with statically valid arguments.
func MustMesh(width, height int, spacingCM float64) *Mesh {
	m, err := NewMesh(width, height, spacingCM)
	if err != nil {
		panic(err)
	}
	return m
}

// NewSquareMesh builds an n x n mesh with the default spacing, matching the
// "4x4 .. 8x8 mesh network" configurations evaluated in the paper.
func NewSquareMesh(n int) (*Mesh, error) { return NewMesh(n, n, DefaultSpacingCM) }

// SpacingCM returns the physical distance between adjacent nodes.
func (m *Mesh) SpacingCM() float64 { return m.spacingCM }

// Size returns the total number of nodes (the node budget K for this mesh).
func (m *Mesh) Size() int { return m.width * m.height }

// String describes the mesh briefly, e.g. "4x4 mesh (1 cm spacing)".
func (m *Mesh) String() string {
	return fmt.Sprintf("%dx%d mesh (%g cm spacing)", m.width, m.height, m.spacingCM)
}
