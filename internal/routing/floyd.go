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
}

// AllPairs runs the Floyd–Warshall variant of Fig 5 on the weight matrix W,
// computing shortest distances and successors for every ordered node pair.
// Ties are broken towards the successor with the smaller node ID so the
// result is deterministic regardless of iteration order. Hot paths should
// reuse a ShortestPaths via ComputeFrom instead.
func AllPairs(w Matrix) *ShortestPaths {
	sp := &ShortestPaths{}
	sp.ComputeFrom(&w)
	return sp
}

// ComputeFrom recomputes the all-pairs shortest paths for the weight matrix
// W, reusing the receiver's backing storage. W is not modified.
func (sp *ShortestPaths) ComputeFrom(w *Matrix) {
	k := w.Dim()
	sp.n = k
	sp.dist.Reset(k)
	if cap(sp.succ) < k*k {
		sp.succ = make([]topology.NodeID, k*k)
	}
	sp.succ = sp.succ[:k*k]
	for i := 0; i < k; i++ {
		distI := sp.dist.Row(i)
		succI := sp.succ[i*k : (i+1)*k]
		wI := w.Row(i)
		for j := 0; j < k; j++ {
			distI[j] = wI[j]
			switch {
			case i == j:
				succI[j] = topology.NodeID(i)
			case wI[j] < Inf:
				succI[j] = topology.NodeID(j)
			default:
				succI[j] = topology.Invalid
			}
		}
	}
	for n := 0; n < k; n++ {
		sp.pivotPass(n)
	}
}

// pivotPass relaxes every ordered pair through the single pivot n, with the
// smaller-successor tie-breaking of Fig 5. It is the Floyd–Warshall inner
// iteration, shared verbatim between the full pass (ComputeFrom) and the
// incremental repair (DeltaWorkspace) so both produce bit-identical
// matrices: after pivoting on any vertex set that contains the head of
// every changed edge, the canonical fixpoint (true distances, minimum
// first hop among all shortest paths) is restored.
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
