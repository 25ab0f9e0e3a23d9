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

// Graph is a directed graph of nodes and links. The zero value is not usable;
// construct graphs with New or NewMesh.
type Graph struct {
	nodes   []Node
	out     map[NodeID][]Link
	links   map[[2]NodeID]Link
	byCoord map[Coord]NodeID
	// sorted mirrors links ordered by (From, To). It is maintained
	// incrementally on every mutation so Links() — called by the routing
	// phase-1 weight build on every controller recompute — is a zero-cost,
	// allocation-free read.
	sorted []Link
}

// New returns an empty graph ready for AddNode / AddLink calls.
func New() *Graph {
	return &Graph{
		out:     make(map[NodeID][]Link),
		links:   make(map[[2]NodeID]Link),
		byCoord: make(map[Coord]NodeID),
	}
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
	if _, ok := g.byCoord[pos]; ok {
		return Invalid, fmt.Errorf("%w: %v", ErrDuplicateCoord, pos)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pos: pos})
	g.byCoord[pos] = id
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
	key := [2]NodeID{from, to}
	if _, ok := g.links[key]; ok {
		return fmt.Errorf("%w: %d -> %d", ErrDuplicateLink, from, to)
	}
	l := Link{From: from, To: to, LengthCM: lengthCM}
	g.links[key] = l
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
// coordinates are preserved.
func (g *Graph) Clone() *Graph {
	c := New()
	c.nodes = append(c.nodes, g.nodes...)
	for pos, id := range g.byCoord {
		c.byCoord[pos] = id
	}
	for key, l := range g.links {
		c.links[key] = l
	}
	for id, ls := range g.out {
		c.out[id] = append([]Link(nil), ls...)
	}
	c.sorted = append([]Link(nil), g.sorted...)
	return c
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

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.Has(id) {
		return Node{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return g.nodes[id], nil
}

// Coordinate returns the coordinate of a node. It panics on unknown IDs,
// which indicates a programming error.
func (g *Graph) Coordinate(id NodeID) Coord {
	if !g.Has(id) {
		panic(fmt.Sprintf("topology: Coordinate of unknown node %d", id))
	}
	return g.nodes[id].Pos
}

// NodeAt returns the node occupying the given coordinate, if any.
func (g *Graph) NodeAt(pos Coord) (NodeID, bool) {
	id, ok := g.byCoord[pos]
	return id, ok
}

// Links returns every directed link, ordered by (From, To). The returned
// slice is shared with the graph and maintained incrementally — callers must
// not modify it. Reading it performs no allocation, which keeps the routing
// phase-1 weight build allocation-free.
func (g *Graph) Links() []Link {
	return g.sorted
}

// Link returns the directed link between two nodes if it exists.
func (g *Graph) Link(from, to NodeID) (Link, bool) {
	l, ok := g.links[[2]NodeID{from, to}]
	return l, ok
}

// OutLinks returns the node's outgoing links in the order they were added.
// Like Links, the slice is shared with the graph: callers must not modify
// it, and a link removal rewrites it in place. Reading it allocates nothing.
func (g *Graph) OutLinks(id NodeID) []Link {
	return g.out[id]
}

// ConnectedFrom reports whether every node in the keep set is reachable from
// the given source using only links whose endpoints are both in keep.
// A nil keep set means "all nodes".
func (g *Graph) ConnectedFrom(src NodeID, keep map[NodeID]bool) bool {
	if !g.Has(src) {
		return false
	}
	allowed := func(id NodeID) bool {
		if keep == nil {
			return true
		}
		return keep[id]
	}
	if !allowed(src) {
		return false
	}
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range g.out[cur] {
			if !allowed(l.To) || seen[l.To] {
				continue
			}
			seen[l.To] = true
			queue = append(queue, l.To)
		}
	}
	if keep == nil {
		return len(seen) == len(g.nodes)
	}
	for id, ok := range keep {
		if ok && !seen[id] {
			return false
		}
	}
	return true
}

// Connected reports whether the whole graph is strongly connected from node 0.
// For the symmetric meshes used in the paper this is equivalent to full
// strong connectivity.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	return g.ConnectedFrom(g.nodes[0].ID, nil)
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil if the graph is well formed.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if got, ok := g.byCoord[n.Pos]; !ok || got != n.ID {
			return fmt.Errorf("topology: coordinate index out of sync at node %d", n.ID)
		}
	}
	for key, l := range g.links {
		if key[0] != l.From || key[1] != l.To {
			return fmt.Errorf("topology: link index out of sync for %v", key)
		}
		if !g.Has(l.From) || !g.Has(l.To) {
			return fmt.Errorf("topology: dangling link %d -> %d", l.From, l.To)
		}
		if l.LengthCM <= 0 {
			return fmt.Errorf("topology: non-positive length on link %d -> %d", l.From, l.To)
		}
	}
	return nil
}
