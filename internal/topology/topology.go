// Package topology models the wired communication fabric of an e-textile
// platform: nodes woven into the garment, directed interconnects made of
// textile transmission lines, and the 2D mesh structure used throughout the
// paper "Energy-Aware Routing for E-Textile Applications" (DATE 2005).
//
// A Graph is a directed multigraph restricted to at most one link per ordered
// node pair. Links carry a physical length in centimetres; the energy cost of
// driving a packet across a link is derived from that length by the energy
// package. Mesh construction follows the paper's coordinate convention where
// node (1,1) sits in the top-left corner and coordinates are 1-based.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node within a Graph. IDs are dense and start at 0 so
// they can be used directly as matrix indices by the routing package.
type NodeID int

// Invalid is the zero-value-adjacent sentinel returned when a lookup fails.
const Invalid NodeID = -1

// Coord is a 1-based grid coordinate as used by the paper (Fig 3b).
type Coord struct {
	X int
	Y int
}

// String renders the coordinate in the paper's "(x,y)" notation.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Manhattan returns the Manhattan (L1) distance between two coordinates,
// i.e. the minimum hop count between the corresponding mesh nodes.
func (c Coord) Manhattan(o Coord) int {
	dx := c.X - o.X
	if dx < 0 {
		dx = -dx
	}
	dy := c.Y - o.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Node is a computational site on the fabric. The module mapped to a node and
// its battery live in higher-level packages; topology only knows position.
type Node struct {
	ID  NodeID
	Pos Coord
}

// Link is a directed interconnect between two nodes. LengthCM is the physical
// length of the textile transmission line implementing it.
type Link struct {
	From     NodeID
	To       NodeID
	LengthCM float64
}

// Graph is a directed graph of nodes and links, held in slices indexed by
// NodeID: no lookup hashes. The zero value is an empty graph ready for
// AddNode / AddLink calls; NewMesh builds the paper's platforms.
type Graph struct {
	nodes []Node
	// out[id] holds node id's outgoing links in the order they were added.
	// Each out-list owns its capacity (NewMesh and Clone cut them from one
	// backing array with 3-index slices), so an append never writes into a
	// neighbour's slots.
	out [][]Link
	// sorted holds every link ordered by (From, To). It is maintained
	// incrementally on every mutation so Links() — called by the routing
	// phase-1 weight build on every controller recompute — is a zero-cost,
	// allocation-free read.
	sorted []Link
}

// Errors returned by graph mutation and lookup operations.
var (
	ErrDuplicateCoord = errors.New("topology: a node already occupies that coordinate")
	ErrUnknownNode    = errors.New("topology: unknown node")
	ErrSelfLink       = errors.New("topology: self links are not allowed")
	ErrDuplicateLink  = errors.New("topology: link already exists")
	ErrBadLength      = errors.New("topology: link length must be positive")
)

// AddNode adds a node at the given coordinate and returns its ID.
// Coordinates must be unique within a graph.
func (g *Graph) AddNode(pos Coord) (NodeID, error) {
	if _, ok := g.NodeAt(pos); ok {
		return Invalid, fmt.Errorf("%w: %v", ErrDuplicateCoord, pos)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pos: pos})
	g.out = append(g.out, nil)
	return id, nil
}

// AddLink adds a directed link from one node to another with the given
// physical length in centimetres.
func (g *Graph) AddLink(from, to NodeID, lengthCM float64) error {
	if !g.Has(from) || !g.Has(to) {
		return fmt.Errorf("%w: %d -> %d", ErrUnknownNode, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: node %d", ErrSelfLink, from)
	}
	if lengthCM <= 0 {
		return fmt.Errorf("%w: %g cm", ErrBadLength, lengthCM)
	}
	if _, ok := g.Link(from, to); ok {
		return fmt.Errorf("%w: %d -> %d", ErrDuplicateLink, from, to)
	}
	l := Link{From: from, To: to, LengthCM: lengthCM}
	g.out[from] = append(g.out[from], l)
	idx := sort.Search(len(g.sorted), func(i int) bool {
		if g.sorted[i].From != from {
			return g.sorted[i].From > from
		}
		return g.sorted[i].To > to
	})
	g.sorted = append(g.sorted, Link{})
	copy(g.sorted[idx+1:], g.sorted[idx:])
	g.sorted[idx] = l
	return nil
}

// AddBiLink adds a pair of directed links (one in each direction) of equal
// length between two nodes.
func (g *Graph) AddBiLink(a, b NodeID, lengthCM float64) error {
	if err := g.AddLink(a, b, lengthCM); err != nil {
		return err
	}
	return g.AddLink(b, a, lengthCM)
}

// Clone returns a deep copy of the graph: mutations of the copy (link
// removal, fault injection) never affect the original. Node IDs and
// coordinates are preserved. The copy takes a fixed number of allocations:
// its out-lists are cut from one backing array.
func (g *Graph) Clone() *Graph {
	// Every link sits in exactly one out-list, so len(g.sorted) links fill
	// the backing array.
	backing := make([]Link, 0, len(g.sorted))
	out := make([][]Link, len(g.out))
	for id, ls := range g.out {
		start := len(backing)
		backing = append(backing, ls...)
		out[id] = backing[start:len(backing):len(backing)]
	}
	return &Graph{
		nodes:  slices.Clone(g.nodes),
		out:    out,
		sorted: slices.Clone(g.sorted),
	}
}

// Has reports whether the graph contains a node with the given ID.
func (g *Graph) Has(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NodeCount returns the number of nodes in the graph.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Nodes returns all nodes ordered by ID. The returned slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Coordinate returns the coordinate of a node. It panics on unknown IDs,
// which indicates a programming error.
func (g *Graph) Coordinate(id NodeID) Coord {
	if !g.Has(id) {
		panic(fmt.Sprintf("topology: Coordinate of unknown node %d", id))
	}
	return g.nodes[id].Pos
}

// NodeAt returns the node occupying the given coordinate, if any, or
// Invalid and false. It scans the nodes: the program asks once per run.
func (g *Graph) NodeAt(pos Coord) (NodeID, bool) {
	for _, n := range g.nodes {
		if n.Pos == pos {
			return n.ID, true
		}
	}
	return Invalid, false
}

// Links returns every directed link, ordered by (From, To). The returned
// slice is shared with the graph and maintained incrementally — callers must
// not modify it. Reading it performs no allocation, which keeps the routing
// phase-1 weight build allocation-free.
func (g *Graph) Links() []Link {
	return g.sorted
}

// Link returns the directed link between two nodes if it exists. It scans
// from's out-list, at most four links on a mesh.
func (g *Graph) Link(from, to NodeID) (Link, bool) {
	if g.Has(from) {
		for _, l := range g.out[from] {
			if l.To == to {
				return l, true
			}
		}
	}
	return Link{}, false
}

// OutLinks returns the node's outgoing links in the order they were added.
// Like Links, the slice is shared with the graph: callers must not modify
// it, and a link removal rewrites it in place. Reading it allocates nothing.
// It returns nil for an unknown node.
func (g *Graph) OutLinks(id NodeID) []Link {
	if !g.Has(id) {
		return nil
	}
	return g.out[id]
}

// Connected reports whether every node is reachable from node 0. For the
// symmetric meshes used in the paper this is equivalent to full strong
// connectivity.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	seen[0] = true
	queue := []NodeID{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range g.out[cur] {
			if !seen[l.To] {
				seen[l.To] = true
				queue = append(queue, l.To)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}
