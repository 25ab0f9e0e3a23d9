package experiments

import (
	"strings"
	"testing"
)

// TestScalingDeterministicColumns checks everything about the scaling rows
// except the wall-clock columns: both strategies must produce byte-identical
// plans on every crossing, the incremental path must actually repair, and
// the dirty-set fractions must stay sane.
func TestScalingDeterministicColumns(t *testing.T) {
	rows, err := Scaling([]int{4, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Nodes != r.Mesh*r.Mesh || r.Crossings != 8 {
			t.Errorf("row %+v has inconsistent geometry", r)
		}
		if !r.FullRan {
			t.Errorf("%dx%d is under the full-baseline cap but FullRan is false", r.Mesh, r.Mesh)
		}
		if !r.Identical {
			t.Errorf("%dx%d: incremental and full plans diverged", r.Mesh, r.Mesh)
		}
		if r.Repairs+r.Fallbacks != r.Crossings {
			t.Errorf("%dx%d: repairs %d + fallbacks %d != crossings %d", r.Mesh, r.Mesh, r.Repairs, r.Fallbacks, r.Crossings)
		}
		if r.Repairs > 0 && (r.DirtyFrac <= 0 || r.DirtyFrac > 1 || r.AffectedFrac <= 0 || r.AffectedFrac > 1) {
			t.Errorf("%dx%d: implausible dirty/affected fractions %+v", r.Mesh, r.Mesh, r)
		}
	}
	// Single-node crossings on the 8x8 mesh must stay under the default
	// crossover; a fallback there would mean the policy regressed.
	if rows[1].Repairs == 0 {
		t.Error("8x8 crossings never took the incremental path")
	}
	tbl := ScalingTable(rows)
	if len(tbl.Rows) != len(rows) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(rows))
	}
	if !strings.Contains(tbl.Render(), "8x8") {
		t.Error("rendered table is missing the 8x8 row")
	}
}

// TestScalingRejectsBadInputs: the argument errors must be eager.
func TestScalingRejectsBadInputs(t *testing.T) {
	if _, err := Scaling([]int{4}, 0); err == nil {
		t.Error("Scaling accepted zero crossings")
	}
	if _, err := Scaling([]int{1}, 4); err == nil {
		t.Error("Scaling accepted a 1x1 mesh")
	}
}
