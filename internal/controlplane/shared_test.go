package controlplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// This file pins exchange-frame phase-2 sharing (a region copying another
// region's bit-identical full pass, DeltaWorkspace.ComputeShared) to plain
// per-region recomputation: every region's tables must equal those of a
// private workspace that sees the same views and is never offered a donor.

// sharedPasses sums, across regions, the full decisions whose phase 2 was
// copied from another region's bit-identical full pass (DeltaStats.Shared).
func sharedPasses(s *Sharded) int {
	shared := 0
	for b := range s.shards {
		shared += s.shards[b].ws.Stats().Shared
	}
	return shared
}

// sharedTrajectory drives a sharded plane from random battery levels
// through drains, liveness flips (deaths and revivals), one link removal
// announced through TopologyEpoch and one region kill window. After every
// frame, each region that recomputed is checked against its own donor-free
// reference workspace. It returns the plane, so callers can inspect
// sharedPasses, and the number of reference recomputes whose tables differ
// from a full pass over the same view: nonzero only where the repair is
// inexact, and only there can copying a repaired donor change a table.
func sharedTrajectory(t *testing.T, meshSize, shards, staleness int, alg routing.Algorithm, seed uint64, frames int) (*Sharded, int) {
	t.Helper()
	deps := testDeps(meshSize, alg)
	s, err := New(Config{Kind: KindSharded, Shards: shards, StalenessFrames: staleness}, deps)
	if err != nil {
		t.Fatal(err)
	}
	k := deps.Graph.NodeCount()
	refs := make([]*routing.DeltaWorkspace, shards)
	fulls := make([]*routing.DeltaWorkspace, shards)
	refTables := make([]*routing.Tables, shards)
	fullTables := make([]*routing.Tables, shards)
	seen := make([]int, shards)
	for b := range refs {
		refs[b] = routing.NewDeltaWorkspace()
		fulls[b] = routing.NewDeltaWorkspace()
		fulls[b].SetMode(routing.RecomputeFull)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	snap := fullState(deps.Graph, 8)
	for i := range snap.Status {
		snap.Status[i].BatteryLevel = rng.Intn(8)
	}
	killed := shards - 1
	inexact := 0
	for f := 1; f <= frames; f++ {
		// Sparse drains keep most per-region diffs under the crossover, so
		// exchange frames mix repairs (a region that already saw a flip in
		// its own shard) with full passes (the regions seeing it now).
		if st := &snap.Status[rng.Intn(k)]; rng.Intn(2) == 0 && st.BatteryLevel > 0 {
			st.BatteryLevel--
		}
		if rng.Intn(5) == 0 {
			// Kill or revive a node of the first shard: a liveness flip,
			// which sends every region that sees it to the full pass. Region
			// 0 sees it at once, so at the next exchange it may repair while
			// the later regions take full passes over the same weights.
			st := &snap.Status[rng.Intn(k/shards)]
			st.Alive = !st.Alive
		}
		if f%7 == 0 {
			st := &snap.Status[rng.Intn(k)]
			st.Deadlocked = !st.Deadlocked
		}
		if f == frames/2 {
			// A fault-injected link removal: physical, so every region
			// sees the new epoch at once.
			a := topology.NodeID(rng.Intn(k - meshSize))
			if err := deps.Graph.RemoveBiLink(a, a+topology.NodeID(meshSize)); err != nil {
				t.Fatal(err)
			}
			snap.TopologyEpoch++
			// Flips in the first and the last shard: between exchanges,
			// two regions take full passes over different weights in the
			// same frame, and neither may copy the other.
			snap.Status[0].Alive = !snap.Status[0].Alive
			snap.Status[k-1].Alive = !snap.Status[k-1].Alive
		}
		if shards > 1 && f == frames/3 {
			s.FaultRegion(killed, true)
		}
		if shards > 1 && f == 2*frames/3 {
			s.FaultRegion(killed, false)
		}
		s.Frame(int64(f), snap)

		for b := range s.shards {
			if s.RecomputeCount(b) == seen[b] {
				continue
			}
			seen[b] = s.RecomputeCount(b)
			sh := &s.shards[b]
			refTables[b] = refs[b].ComputeInto(alg, &sh.view, deps.Destinations, refTables[b]).Tables
			if diff := tablesDiff(deps, sh.tables, refTables[b]); diff != "" {
				t.Fatalf("frame %d region %d: %s", f, b, diff)
			}
			fullTables[b] = fulls[b].ComputeInto(alg, &sh.view, deps.Destinations, fullTables[b]).Tables
			if tablesDiff(deps, refTables[b], fullTables[b]) != "" {
				inexact++
			}
		}
	}
	// The references make the same policy decisions as the regions; only
	// the plane's copies of a full pass differ in how they were executed.
	full, incremental := s.RecomputeSplit()
	refFull, refIncremental := 0, 0
	for _, ref := range refs {
		st := ref.Stats()
		refFull += st.Full
		refIncremental += st.Incremental
		if st.Shared != 0 {
			t.Fatalf("donor-free reference reports %d shared passes", st.Shared)
		}
	}
	if full != refFull || incremental != refIncremental {
		t.Fatalf("split = %d/%d, references %d/%d", full, incremental, refFull, refIncremental)
	}
	if shared := sharedPasses(s); shared > full {
		t.Fatalf("%d shared passes exceed %d full decisions", shared, full)
	}
	return s, inexact
}

// tablesDiff compares two table generations entry by entry — per-node
// presence, every next hop and every module route, distances bit for bit —
// and describes the first difference, or returns "" when they are equal.
func tablesDiff(deps Deps, got, want *routing.Tables) string {
	k := deps.Graph.NodeCount()
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		if got.Has(node) != want.Has(node) {
			return fmt.Sprintf("Has(%d) = %v, want %v", n, got.Has(node), want.Has(node))
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			if g, w := got.NextHop(node, dest), want.NextHop(node, dest); g != w {
				return fmt.Sprintf("NextHop(%d,%d) = %d, want %d", n, d, g, w)
			}
		}
		for m := range deps.Destinations {
			g, gOK := got.RouteTo(node, m)
			w, wOK := want.RouteTo(node, m)
			if gOK != wOK || g.Dest != w.Dest || g.NextHop != w.NextHop ||
				math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
				return fmt.Sprintf("RouteTo(%d,%d) = %+v,%v, want %+v,%v", n, m, g, gOK, w, wOK)
			}
		}
	}
	return ""
}

// TestShardedSharedPhase2MatchesUnshared: at staleness 1 and 8, with the
// default EAR Q and with Q = 21.3, sharing a full pass across regions
// changes no table, and the shared path is taken. At Q = 21.3 weight sums
// round, so repaired tables differ from full-pass tables; there the check
// also shows that a repaired phase 2 is never handed on as a donor (a plane
// that offered every recomputing region as donor, to a workspace that
// accepted any, fails seeds 1 and 2 at staleness 8).
func TestShardedSharedPhase2MatchesUnshared(t *testing.T) {
	for _, q := range []float64{2, 21.3} {
		for _, staleness := range []int{1, 8} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("Q=%g/staleness=%d/seed=%d", q, staleness, seed), func(t *testing.T) {
					alg := routing.EAR{Params: routing.EARParams{Q: q, Levels: 8}}
					s, inexact := sharedTrajectory(t, 8, 4, staleness, alg, seed, 48)
					if sharedPasses(s) == 0 {
						t.Fatal("no region ever copied another region's full pass")
					}
					if q == 2 && inexact != 0 {
						t.Fatalf("%d repairs differ from the full pass at dyadic Q", inexact)
					}
					if q != 2 && inexact == 0 {
						t.Fatal("every repair matched the full pass: the trajectory cannot tell a repaired donor from a full one")
					}
				})
			}
		}
	}
}

// FuzzShardedSharedPhase2 checks the same equality over arbitrary EAR Q
// (within EARParams.Validate's range), shard counts, staleness bounds and
// perturbation seeds on the 6x6 mesh. The seed corpus is in
// testdata/fuzz/FuzzShardedSharedPhase2.
func FuzzShardedSharedPhase2(f *testing.F) {
	f.Fuzz(func(t *testing.T, q float64, shards, staleness int, seed uint64) {
		params := routing.EARParams{Q: q, Levels: 8}
		if params.Validate() != nil {
			t.Skip()
		}
		const meshSize = 6
		shards = 1 + int(uint(shards)%8)
		staleness = 1 + int(uint(staleness)%16)
		sharedTrajectory(t, meshSize, shards, staleness, routing.EAR{Params: params}, seed, 24)
	})
}

// BenchmarkShardedExchangeFullPass measures a sharded exchange frame on the
// 8x8 mesh in which every region takes the full pass: staleness 1, and a
// node's liveness toggles each frame, a change every region sees. Region 0
// runs Floyd–Warshall and regions 1-3 copy its result, so this guards the
// shared path's steady state at 0 allocs/op.
func BenchmarkShardedExchangeFullPass(b *testing.B) {
	deps := testDeps(8, routing.NewEAR())
	s, err := New(Config{Kind: KindSharded, Shards: 4, StalenessFrames: 1}, deps)
	if err != nil {
		b.Fatal(err)
	}
	snap := fullState(deps.Graph, 8)
	toggle := &snap.Status[len(snap.Status)/2]
	frame := func(f int64) {
		toggle.Alive = !toggle.Alive
		s.Frame(f, snap)
	}
	// Warm-up: the first frames size every workspace and both table
	// ping-pong buffers.
	for f := int64(1); f <= 3; f++ {
		frame(f)
	}
	before := sharedPasses(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(int64(i) + 4)
	}
	b.StopTimer()
	if got, want := sharedPasses(s)-before, 3*b.N; got != want {
		b.Fatalf("shared passes = %d over %d frames, want %d", got, b.N, want)
	}
}
