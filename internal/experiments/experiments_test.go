package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The experiment tests use the two smallest mesh sizes to keep the suite
// fast; the full five-size sweeps are exercised by cmd/etbench and the
// root-level benchmarks.
var testSizes = []int{4, 5}

func TestPaperConstants(t *testing.T) {
	if len(PaperMeshSizes()) != 5 || PaperMeshSizes()[0] != 4 || PaperMeshSizes()[4] != 8 {
		t.Errorf("PaperMeshSizes = %v", PaperMeshSizes())
	}
	if len(PaperControllerCounts()) != 5 || PaperControllerCounts()[0] != 1 || PaperControllerCounts()[4] != 10 {
		t.Errorf("PaperControllerCounts = %v", PaperControllerCounts())
	}
}

func TestFig2CurveShape(t *testing.T) {
	points := Fig2(20)
	if len(points) < 10 {
		t.Fatalf("only %d points sampled", len(points))
	}
	if points[0].Voltage < 4.0 || points[0].Voltage > 4.3 {
		t.Errorf("initial voltage = %.2f, want near 4.18", points[0].Voltage)
	}
	last := points[len(points)-1]
	if last.Voltage > 3.3 {
		t.Errorf("final voltage = %.2f, want to approach the 3.0 V cutoff", last.Voltage)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Voltage > points[i-1].Voltage+1e-9 {
			t.Fatalf("discharge curve not monotone at point %d", i)
		}
		if points[i].DepthOfDischarge <= points[i-1].DepthOfDischarge {
			t.Fatalf("depth of discharge not increasing at point %d", i)
		}
	}
	// The thin-film plateau: at half discharge the voltage should still be
	// close to 3.8-3.9 V.
	for _, p := range points {
		if p.DepthOfDischarge > 0.45 && p.DepthOfDischarge < 0.55 {
			if p.Voltage < 3.6 || p.Voltage > 4.0 {
				t.Errorf("voltage at 50%% DoD = %.2f, want the ~3.85 V plateau", p.Voltage)
			}
		}
	}
	if tbl := Fig2Table(points); len(tbl.Rows) != len(points) {
		t.Error("Fig2Table row count mismatch")
	}
	if Fig2(0) == nil {
		t.Error("Fig2 with too few samples should still return points")
	}
}

// TestFig2SampleCounts is the regression test for the threshold-skip bug:
// when one Draw step crosses several 1/samples depth-of-discharge thresholds,
// the sampler must catch next up past the current depth instead of advancing
// it once (which made later samples fire early and bunch up).
func TestFig2SampleCounts(t *testing.T) {
	cases := []struct {
		samples   int
		effective int // Fig2 clamps samples < 2 to 2
	}{
		{samples: 0, effective: 2},
		{samples: 1, effective: 2},
		{samples: 2, effective: 2},
		{samples: 100, effective: 100},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("samples=%d", tc.samples), func(t *testing.T) {
			points := Fig2(tc.samples)
			if len(points) < 3 {
				t.Fatalf("only %d points", len(points))
			}
			// At most one point per threshold, plus the initial point and the
			// closing cutoff point.
			if max := tc.effective + 2; len(points) > max {
				t.Errorf("%d points for %d thresholds; threshold catch-up is not de-duplicating", len(points), tc.effective)
			}
			// Interior points must land on distinct thresholds: consecutive
			// samples are at least one threshold spacing apart (step-quantized,
			// hence the small tolerance).
			spacing := 1.0 / float64(tc.effective)
			interior := points[1 : len(points)-1]
			for i := 1; i < len(interior); i++ {
				if gap := interior[i].DepthOfDischarge - interior[i-1].DepthOfDischarge; gap < spacing*0.5 {
					t.Errorf("points %d and %d only %.4f apart, want >= %.4f: thresholds bunched up",
						i-1, i, gap, spacing*0.5)
				}
			}
			for i := 1; i < len(points); i++ {
				if points[i].DepthOfDischarge <= points[i-1].DepthOfDischarge {
					t.Errorf("depth of discharge not increasing at point %d", i)
				}
				if points[i].Voltage > points[i-1].Voltage+1e-9 {
					t.Errorf("voltage not monotone at point %d", i)
				}
			}
		})
	}
}

// testWorkerCounts are the pool sizes the determinism tests compare: serial,
// a fixed small fan-out, and whatever this machine defaults to.
func testWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestFig7DeterministicAcrossWorkers asserts the parallel sweep is
// element-for-element identical to a serial reference run.
func TestFig7DeterministicAcrossWorkers(t *testing.T) {
	ref, err := Fig7(testSizes, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range testWorkerCounts() {
		rows, err := Fig7(testSizes, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != len(ref) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(ref))
		}
		for i := range ref {
			if rows[i] != ref[i] {
				t.Errorf("workers=%d: row %d = %+v, want %+v", workers, i, rows[i], ref[i])
			}
		}
	}
}

// TestFig8DeterministicAcrossWorkers covers the two-dimensional grid: every
// (mesh, controllers) cell must land at its input-order position with the
// same value regardless of fan-out, and the rendered table must be
// byte-identical to the serial path.
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	counts := []int{1, 4}
	ref, err := Fig8(testSizes, counts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	refTable := Fig8Table(ref, counts).Render()
	for _, workers := range testWorkerCounts() {
		rows, err := Fig8(testSizes, counts, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != len(ref) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(ref))
		}
		for i := range ref {
			if rows[i] != ref[i] {
				t.Errorf("workers=%d: row %d = %+v, want %+v", workers, i, rows[i], ref[i])
			}
		}
		if table := Fig8Table(rows, counts).Render(); table != refTable {
			t.Errorf("workers=%d: rendered table differs from the serial run", workers)
		}
	}
}

// TestSweepsPropagateCellErrors asserts a failing cell surfaces its error
// through the pool instead of being lost in a worker.
func TestSweepsPropagateCellErrors(t *testing.T) {
	if _, err := Fig7([]int{4, -1}, WithWorkers(4)); err == nil {
		t.Error("Fig7 accepted a negative mesh size")
	}
	if _, err := Fig8([]int{4}, []int{0, -2}, WithWorkers(4)); err == nil {
		t.Error("Fig8 accepted a negative controller count")
	}
}

func TestFig7ReproducesHeadlineClaim(t *testing.T) {
	rows, err := Fig7(testSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testSizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.EARJobs <= r.SDRJobs {
			t.Errorf("%dx%d: EAR (%d) did not beat SDR (%d)", r.Mesh, r.Mesh, r.EARJobs, r.SDRJobs)
		}
		if r.Gain < 3 {
			t.Errorf("%dx%d: EAR/SDR gain %.1f, want >= 3", r.Mesh, r.Mesh, r.Gain)
		}
		if r.EAROverhead <= 0 || r.EAROverhead > 0.2 {
			t.Errorf("%dx%d: control overhead %.1f%% out of range", r.Mesh, r.Mesh, 100*r.EAROverhead)
		}
		if i > 0 && r.EARJobs <= rows[i-1].EARJobs {
			t.Errorf("EAR jobs did not grow with mesh size: %v", rows)
		}
	}
	tbl := Fig7Table(rows)
	if !strings.Contains(tbl.Render(), "EAR/SDR") {
		t.Error("Fig7Table missing gain column")
	}
	chart := Fig7Chart(rows)
	if out := chart.Render(60); !strings.Contains(out, "EAR") || !strings.Contains(out, "SDR") {
		t.Error("Fig7Chart output incomplete")
	}
}

func TestTable2ReproducesBoundColumn(t *testing.T) {
	rows, err := Table2(testSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The J* column must match the paper to within 0.2 %.
		if r.PaperUpperBound > 0 {
			diff := (r.UpperBound - r.PaperUpperBound) / r.PaperUpperBound
			if diff < -0.002 || diff > 0.002 {
				t.Errorf("%dx%d: J* = %.2f, paper %.2f", r.Mesh, r.Mesh, r.UpperBound, r.PaperUpperBound)
			}
		}
		if float64(r.EARJobs) > r.UpperBound {
			t.Errorf("%dx%d: simulated EAR (%d) exceeds the bound (%.2f)", r.Mesh, r.Mesh, r.EARJobs, r.UpperBound)
		}
		if r.Achieved < 0.40 {
			t.Errorf("%dx%d: EAR achieved only %.1f%% of the bound", r.Mesh, r.Mesh, 100*r.Achieved)
		}
	}
	tbl := Table2Table(rows)
	if !strings.Contains(tbl.Render(), "paper J*") {
		t.Error("Table2Table missing paper columns")
	}
}

func TestFig8ControllerTrends(t *testing.T) {
	counts := []int{1, 4, 10}
	rows, err := Fig8([]int{4}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byCount := map[int]int{}
	for _, r := range rows {
		byCount[r.Controllers] = r.Jobs
	}
	if !(byCount[1] < byCount[4] && byCount[4] <= byCount[10]) {
		t.Errorf("jobs did not increase with controller count: %v", byCount)
	}
	tbl := Fig8Table(rows, counts)
	if !strings.Contains(tbl.Render(), "10 controllers") {
		t.Error("Fig8Table missing controller column")
	}
	chart := Fig8Chart(rows, counts)
	if out := chart.Render(50); !strings.Contains(out, "EAR, 1 controllers") {
		t.Error("Fig8Chart output incomplete")
	}
}

func TestFig8LargerMeshSuffersMoreFromFewControllers(t *testing.T) {
	rows, err := Fig8([]int{4, 6}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[1].Jobs >= rows[0].Jobs {
		t.Errorf("with one controller the 6x6 mesh (%d jobs) should complete fewer jobs than the 4x4 (%d): a bigger controller consumes more power",
			rows[1].Jobs, rows[0].Jobs)
	}
}

func TestAblationEARWeight(t *testing.T) {
	rows, err := AblationEARWeight([]int{4}, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	byQ := map[float64]int{}
	for _, r := range rows {
		byQ[r.Q] = r.Jobs
	}
	// Q = 1 disables the battery weighting entirely; it must do clearly worse
	// than the default Q = 2.
	if byQ[1] >= byQ[2] {
		t.Errorf("Q=1 (%d jobs) should underperform Q=2 (%d jobs)", byQ[1], byQ[2])
	}
	if tbl := AblationQTable(rows); len(tbl.Rows) != len(rows) {
		t.Error("AblationQTable row count mismatch")
	}
}

func TestAblationMapping(t *testing.T) {
	rows, err := AblationMapping([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 mapping strategies, got %d", len(rows))
	}
	byName := map[string]int{}
	for _, r := range rows {
		if r.Jobs <= 0 {
			t.Errorf("mapping %s completed no jobs", r.Strategy)
		}
		byName[r.Strategy] = r.Jobs
	}
	if byName["checkerboard"] < byName["row-major-blocks"]/2 {
		t.Errorf("checkerboard (%d) unexpectedly collapsed relative to row-major (%d)",
			byName["checkerboard"], byName["row-major-blocks"])
	}
	if tbl := AblationMappingTable(rows); len(tbl.Rows) != 4 {
		t.Error("AblationMappingTable row count mismatch")
	}
}

func TestAblationBattery(t *testing.T) {
	rows, err := AblationBattery([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	jobs := map[string]int{}
	for _, r := range rows {
		jobs[r.Battery+"/"+r.Algorithm] = r.Jobs
	}
	// The thin-film model must not beat the ideal model for the same
	// algorithm, and EAR must beat SDR under both models.
	if jobs["thin-film/EAR"] > jobs["ideal/EAR"] {
		t.Errorf("thin-film EAR (%d) beat ideal EAR (%d)", jobs["thin-film/EAR"], jobs["ideal/EAR"])
	}
	if jobs["thin-film/SDR"] > jobs["ideal/SDR"] {
		t.Errorf("thin-film SDR (%d) beat ideal SDR (%d)", jobs["thin-film/SDR"], jobs["ideal/SDR"])
	}
	if jobs["thin-film/EAR"] <= jobs["thin-film/SDR"] || jobs["ideal/EAR"] <= jobs["ideal/SDR"] {
		t.Errorf("EAR did not beat SDR under both battery models: %v", jobs)
	}
	// The EAR/SDR gap must be wider with the realistic battery, which is the
	// paper's motivation for modelling it.
	thinGap := float64(jobs["thin-film/EAR"]) / float64(jobs["thin-film/SDR"])
	idealGap := float64(jobs["ideal/EAR"]) / float64(jobs["ideal/SDR"])
	if thinGap <= idealGap {
		t.Errorf("thin-film gap %.1fx not wider than ideal gap %.1fx", thinGap, idealGap)
	}
	if tbl := AblationBatteryTable(rows); len(tbl.Rows) != 4 {
		t.Error("AblationBatteryTable row count mismatch")
	}
}

func TestAblationLinkFailures(t *testing.T) {
	rows, err := AblationLinkFailures([]int{5}, []float64{0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.EARJobs <= 0 {
			t.Errorf("EAR completed no jobs with %.0f%% failed links", 100*r.Fraction)
		}
		if r.EARJobs <= r.SDRJobs {
			t.Errorf("EAR (%d) did not beat SDR (%d) with %.0f%% failed links",
				r.EARJobs, r.SDRJobs, 100*r.Fraction)
		}
	}
	// Damaging the fabric must not help: the healthy mesh completes at least
	// as many jobs as the damaged one (allowing a small tolerance because the
	// routing detours change which node dies last).
	if rows[1].EARJobs > rows[0].EARJobs+rows[0].EARJobs/10 {
		t.Errorf("damaged mesh (%d jobs) substantially outperformed the healthy mesh (%d jobs)",
			rows[1].EARJobs, rows[0].EARJobs)
	}
	if tbl := AblationLinkTable(rows); len(tbl.Rows) != 2 {
		t.Error("AblationLinkTable row count mismatch")
	}
	if _, err := AblationLinkFailures([]int{4}, []float64{1.5}); err == nil {
		t.Error("invalid failure fraction accepted")
	}
}

func TestAblationConcurrency(t *testing.T) {
	rows, err := AblationConcurrency([]int{4}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.JobsCompleted <= 0 {
			t.Errorf("%d concurrent jobs completed nothing", r.ConcurrentJobs)
		}
	}
	if rows[0].DeadlockReports != 0 {
		t.Errorf("single-job run reported %d deadlocks", rows[0].DeadlockReports)
	}
	if tbl := AblationConcurrencyTable(rows); len(tbl.Rows) != 3 {
		t.Error("AblationConcurrencyTable row count mismatch")
	}
}
