package routing

import "repro/internal/topology"

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
//     unreachable pivot column (min(x, Inf) = x). Each row update is one
//     minPlusRow call, the AVX2 kernel where the CPU has it; it takes the
//     same sum and the same minimum per cell as the Go loop, so every host
//     computes the same bits.
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
		distN := sp.dist.Row(n)
		for i := 0; i < k; i++ {
			distI := sp.dist.Row(i)
			din := distI[n]
			if i == n || din == Inf {
				continue
			}
			minPlusRow(distI, distN, din)
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

// pivotRow relaxes every pair (i, j) of row i through the single pivot
// n ≠ i, with the smaller-successor tie-breaking of Fig 5; distN is row n's
// distances as the pass on n reads them. A pivot pass is pivotRow
// over every row but n, and row n does not change during it. It is the
// incremental repair's last step (DeltaWorkspace runs one pass per head of
// a changed edge, in ascending head order): after pivoting on any vertex
// set that contains the head of every changed edge, the canonical fixpoint
// (true distances, minimum first hop among all shortest paths) is
// restored, so the repair meets ComputeFrom's result. pivotRow writes only
// row i and reads only row i and distN.
//
// Fig 5's loop also skips j == n, j == i and d(n,j) = Inf. Under positive
// weights (and a zero diagonal, which the repair never writes) each of those
// cells is a no-op here, so the inner loop tests none of them:
//
//   - j == n: through = d(i,n) + 0 = d(i,j), a tie, and sin is succ(i,n)
//     itself, so sin < succ(i,j) is false;
//   - j == i: through = d(i,n) + d(n,i) > 0 = d(i,i), skipped;
//   - d(n,j) = Inf: through = Inf, skipped against a finite d(i,j), and a
//     tie with d(i,j) = Inf writes nothing because through < Inf fails.
//
// The one predicted branch is through > d(i,j). A tie then writes sin only
// when it is the smaller hop: Invalid is −1, so uint(sin) < uint(succ(i,j))
// is false for an Invalid sin and true against an Invalid succ(i,j), which
// are exactly Fig 5's two Invalid tests. A row with d(i,n) = Inf stays
// skipped, and so must row n itself: pivoting it on itself would tie every
// cell and write n.
func (sp *ShortestPaths) pivotRow(i, n int, distN []float64) {
	k := sp.n
	// The row is resliced to length k and the inner loop ranges over it,
	// which lets the compiler drop the bounds checks inside it.
	distI := sp.dist.Row(i)[:k]
	din := distI[n]
	if din == Inf {
		return
	}
	distN = distN[:k]
	succI := sp.succ[i*k : (i+1)*k][:k]
	sin := succI[n]
	for j, dij := range distI {
		through := din + distN[j]
		if through > dij {
			continue
		}
		if through < dij {
			distI[j] = through
			succI[j] = sin
		} else if through < Inf && uint(sin) < uint(succI[j]) {
			succI[j] = sin
		}
	}
}

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
