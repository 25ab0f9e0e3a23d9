package routing

import (
	"fmt"

	"repro/internal/topology"
)

// ShortestPaths is the result of phase 2: the all-pairs distance matrix D and
// the successor matrix S, both stored flat for cache locality. Succ(i, j) is
// the next hop on a shortest path from i to j, or topology.Invalid when j is
// unreachable from i.
type ShortestPaths struct {
	n    int
	dist Matrix
	succ []topology.NodeID // row-major, n*n
	best []float64         // ComputeFrom's first-hop scratch row, length n
}

// ComputeFrom runs phase 2 (Fig 5) on the weight matrix W into the
// receiver's reused storage, in two steps:
//
//  1. Floyd–Warshall over distances only: for each pivot n in ascending
//     order, every row i that reaches n relaxes d(i,j) to
//     min(d(i,j), d(i,n)+d(n,j)). It compares the same sums in the same
//     order as Fig 5's loop with successors, so the distances are
//     bit-identical to it; the j == n and j == i cases need no branch
//     (d(n,n) = d(i,i) = 0 and weights are positive) and neither does an
//     unreachable pivot column (min(x, Inf) = x).
//  2. First hops: Succ(i, j) is the smallest out-neighbour u of i that
//     minimises w(i,u)+d(u,j), Succ(i, i) = i, and Invalid when no
//     out-neighbour reaches j. With exact sums this is Fig 5's tie-break,
//     the minimum first hop among all shortest paths; an argmin rather
//     than an equality test with d(i,j) gives every reachable pair a hop
//     even where the sums round. It costs O(K²·deg) against step 1's
//     O(K³).
//
// W is not modified.
func (sp *ShortestPaths) ComputeFrom(w *Matrix) {
	k := w.Dim()
	sp.n = k
	sp.dist.n = k
	sp.dist.cells = append(sp.dist.cells[:0], w.cells[:k*k]...)
	for n := 0; n < k; n++ {
		// Row n is not written while pivoting on n, so it is hoisted.
		// Every row is resliced to its length, which lets the compiler
		// drop the bounds checks inside the inner loop.
		distN := sp.dist.Row(n)
		for i := 0; i < k; i++ {
			distI := sp.dist.Row(i)[:len(distN)]
			din := distI[n]
			if i == n || din == Inf {
				continue
			}
			for j, dnj := range distN {
				distI[j] = min(distI[j], din+dnj)
			}
		}
	}

	if cap(sp.succ) < k*k {
		sp.succ = make([]topology.NodeID, k*k)
	}
	sp.succ = sp.succ[:k*k]
	if cap(sp.best) < k {
		sp.best = make([]float64, k)
	}
	best := sp.best[:k]
	for i := 0; i < k; i++ {
		succI := sp.succ[i*k : (i+1)*k][:len(best)]
		for j := range best {
			best[j], succI[j] = Inf, topology.Invalid
		}
		// Out-neighbours in ascending order with a strict <, so a tie
		// keeps the smaller hop.
		for u, wiu := range w.Row(i) {
			if u == i || wiu == Inf {
				continue
			}
			hop := topology.NodeID(u)
			for j, duj := range sp.dist.Row(u)[:len(best)] {
				if c := wiu + duj; c < best[j] {
					best[j], succI[j] = c, hop
				}
			}
		}
		succI[i] = topology.NodeID(i)
	}
}

// copyFrom makes sp a copy of src's distance and successor matrices,
// reusing sp's storage.
func (sp *ShortestPaths) copyFrom(src *ShortestPaths) {
	sp.n, sp.dist.n = src.n, src.dist.n
	sp.dist.cells = append(sp.dist.cells[:0], src.dist.cells...)
	sp.succ = append(sp.succ[:0], src.succ...)
}

// pivotPass relaxes every ordered pair through the single pivot n, with the
// smaller-successor tie-breaking of Fig 5. It is the incremental repair's
// last step (DeltaWorkspace runs it once per head of a changed edge):
// after pivoting on any vertex set that contains the head of every changed
// edge, the canonical fixpoint (true distances, minimum first hop among all
// shortest paths) is restored, so the repair meets ComputeFrom's result.
func (sp *ShortestPaths) pivotPass(n int) {
	k := sp.n
	// Row n is never written while pivoting on n (the j == n and i == n
	// cases are skipped), so hoisting the row slices out of the inner
	// loop preserves the exact reference arithmetic. Every row is resliced
	// to length k and the inner loop ranges over distI, which lets the
	// compiler drop the bounds checks inside it.
	distN := sp.dist.Row(n)[:k]
	for i := 0; i < k; i++ {
		if i == n {
			continue
		}
		distI := sp.dist.Row(i)[:k]
		din := distI[n]
		if din == Inf {
			continue
		}
		succI := sp.succ[i*k : (i+1)*k][:k]
		sin := succI[n]
		for j, dij := range distI {
			dnj := distN[j]
			if j == n || j == i || dnj == Inf {
				continue
			}
			through := din + dnj
			switch {
			case through < dij:
				distI[j] = through
				succI[j] = sin
			case through == dij && sin != topology.Invalid &&
				(succI[j] == topology.Invalid || sin < succI[j]):
				succI[j] = sin
			}
		}
	}
}

// Dim returns the number of nodes the paths were computed over.
func (sp *ShortestPaths) Dim() int { return sp.n }

// Dist returns the shortest weighted distance from src to dst (Inf when
// unreachable).
func (sp *ShortestPaths) Dist(src, dst topology.NodeID) float64 {
	return sp.dist.At(int(src), int(dst))
}

// Succ returns the next hop on a shortest path from src to dst, or
// topology.Invalid when dst is unreachable from src.
func (sp *ShortestPaths) Succ(src, dst topology.NodeID) topology.NodeID {
	return sp.succ[int(src)*sp.n+int(dst)]
}

// Reachable reports whether dst is reachable from src.
func (sp *ShortestPaths) Reachable(src, dst topology.NodeID) bool {
	return sp.Dist(src, dst) < Inf
}

// inRange reports whether both endpoints index valid nodes.
func (sp *ShortestPaths) inRange(src, dst topology.NodeID) bool {
	return int(src) >= 0 && int(src) < sp.n && int(dst) >= 0 && int(dst) < sp.n
}

// Path reconstructs the node sequence of a shortest path from src to dst
// (inclusive of both endpoints) by following successors. It returns an error
// if dst is unreachable or a successor loop is detected (which would indicate
// a corrupted matrix).
func (sp *ShortestPaths) Path(src, dst topology.NodeID) ([]topology.NodeID, error) {
	if !sp.inRange(src, dst) {
		return nil, fmt.Errorf("routing: path endpoints %d -> %d out of range", src, dst)
	}
	if !sp.Reachable(src, dst) {
		return nil, fmt.Errorf("routing: node %d unreachable from %d", dst, src)
	}
	path := []topology.NodeID{src}
	cur := src
	for cur != dst {
		next := sp.Succ(cur, dst)
		if next == topology.Invalid {
			return nil, fmt.Errorf("routing: missing successor from %d towards %d", cur, dst)
		}
		path = append(path, next)
		cur = next
		if len(path) > sp.n {
			return nil, fmt.Errorf("routing: successor loop detected between %d and %d", src, dst)
		}
	}
	return path, nil
}

// HopCount returns the number of hops on the shortest path from src to dst,
// or -1 if unreachable. It walks the successor matrix directly and performs
// no allocation.
func (sp *ShortestPaths) HopCount(src, dst topology.NodeID) int {
	if !sp.inRange(src, dst) || !sp.Reachable(src, dst) {
		return -1
	}
	hops := 0
	for cur := src; cur != dst; hops++ {
		next := sp.Succ(cur, dst)
		if next == topology.Invalid || hops >= sp.n {
			return -1
		}
		cur = next
	}
	return hops
}
