package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestFig8ShardedGridShapeAndDefaults(t *testing.T) {
	if got := DefaultShardCounts(); len(got) == 0 || got[0] != 1 {
		t.Errorf("DefaultShardCounts = %v, want the centralized baseline first", got)
	}
	if got := DefaultShardedControllerCounts(); len(got) == 0 || got[0] != 0 {
		t.Errorf("DefaultShardedControllerCounts = %v, want the infinite-energy row first", got)
	}
	rows, err := Fig8Sharded([]int{4}, []int{0}, []int{1, 2}, []int{1, 4}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// shards=1 collapses the staleness axis to a single centralized row.
	if len(rows) != 3 {
		t.Fatalf("grid has %d rows, want 3 (1 centralized + 2 staleness)", len(rows))
	}
	if rows[0].Shards != 1 || rows[0].Staleness != 1 || rows[0].ShardRecomputes != nil {
		t.Errorf("centralized row = %+v, want shards=1, staleness=1, nil per-shard counts", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Shards != 2 || len(r.ShardRecomputes) != 2 {
			t.Errorf("sharded row = %+v, want 2 shards with per-shard counts", r)
		}
		max := 0
		for _, n := range r.ShardRecomputes {
			if n > max {
				max = n
			}
		}
		if r.MaxShardRecomputes != max {
			t.Errorf("MaxShardRecomputes = %d, want %d", r.MaxShardRecomputes, max)
		}
	}
	tbl := Fig8ShardedTable(rows)
	if len(tbl.Rows) != len(rows) {
		t.Error("Fig8ShardedTable row count mismatch")
	}
	if rendered := tbl.Render(); !strings.Contains(rendered, "inf") {
		t.Error("table does not render the infinite-energy controller rows as inf")
	}
	if Fig8ShardedChart(rows) == nil {
		t.Error("Fig8ShardedChart returned nil")
	}
}

// TestFig8ShardedDeterministicAcrossWorkers: the sweep must be byte-identical
// at any worker count (the CI fig8-sharded guard diffs full etbench output the
// same way).
func TestFig8ShardedDeterministicAcrossWorkers(t *testing.T) {
	grid := func(workers int) []Fig8ShardedRow {
		rows, err := Fig8Sharded([]int{5}, []int{0, 2}, []int{1, 3}, []int{1, 4}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := grid(1), grid(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fig8-sharded rows differ between 1 and 4 workers:\n%+v\n%+v", serial, parallel)
	}
}

// TestFig8ShardedRegionalRecomputesBelowCentralized is the PR's acceptance
// criterion: on the 8x8 mesh with 4 shards and a bounded-staleness exchange,
// every region's own recompute count must be strictly below the centralized
// plane's full-mesh recompute count in the equal-lifetime (infinite-energy
// controller) comparison.
func TestFig8ShardedRegionalRecomputesBelowCentralized(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 8x8 runs; skipped with -short")
	}
	rows, err := Fig8Sharded([]int{8}, []int{0}, []int{1, 4}, []int{8}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want centralized + sharded", len(rows))
	}
	central, regional := rows[0], rows[1]
	if central.Shards != 1 || regional.Shards != 4 {
		t.Fatalf("unexpected row order: %+v, %+v", central, regional)
	}
	if central.RecomputeFrames == 0 {
		t.Fatal("centralized baseline never recomputed")
	}
	for shard, n := range regional.ShardRecomputes {
		if n >= central.RecomputeFrames {
			t.Errorf("shard %d recomputed %d times, not strictly below the centralized %d",
				shard, n, central.RecomputeFrames)
		}
	}
	if regional.MaxShardRecomputes >= central.RecomputeFrames {
		t.Errorf("max per-shard recomputes %d, want < centralized %d",
			regional.MaxShardRecomputes, central.RecomputeFrames)
	}
}
