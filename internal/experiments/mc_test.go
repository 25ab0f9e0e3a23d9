package experiments

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// mcReplicates keeps the Monte-Carlo sweep tests fast while still leaving
// the collection phase of the quantile estimators (5 samples) behind.
const mcReplicates = 8

// TestFig7MCDeterministicAcrossWorkers extends the determinism suite to the
// campaign-backed sweeps: every aggregate (mean, CI, quantile state) must be
// identical whether cells fan out or run serially.
func TestFig7MCDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Fig7MC([]int{4}, mcReplicates, 1, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	refTable := Fig7MCTable(ref).Render()
	for _, workers := range testWorkerCounts() {
		rows, err := Fig7MC([]int{4}, mcReplicates, 1, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != len(ref) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(ref))
		}
		for i := range ref {
			if rows[i] != ref[i] {
				t.Errorf("workers=%d: row %d differs from the serial run", workers, i)
			}
		}
		if table := Fig7MCTable(rows).Render(); table != refTable {
			t.Errorf("workers=%d: rendered table differs from the serial run", workers)
		}
	}
}

func TestFig7MCPairedComparison(t *testing.T) {
	rows, err := Fig7MC([]int{4}, mcReplicates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.EARJobs.Count() != mcReplicates || r.SDRJobs.Count() != mcReplicates {
		t.Fatalf("aggregates folded %d/%d replicates, want %d",
			r.EARJobs.Count(), r.SDRJobs.Count(), mcReplicates)
	}
	// The headline claim must survive replication: mean EAR beats mean SDR,
	// and by enough that the CIs cannot overlap.
	if r.EARJobs.Mean() <= r.SDRJobs.Mean() {
		t.Errorf("mean EAR jobs (%.1f) did not beat mean SDR jobs (%.1f)",
			r.EARJobs.Mean(), r.SDRJobs.Mean())
	}
	if lo, hi := r.EARJobs.Mean()-r.EARJobs.CI95(), r.SDRJobs.Mean()+r.SDRJobs.CI95(); lo <= hi {
		t.Errorf("EAR and SDR confidence intervals overlap: EAR lower %.1f vs SDR upper %.1f", lo, hi)
	}
	// Random placements genuinely vary.
	if r.EARJobs.StdDev() == 0 {
		t.Error("EAR campaign produced zero variance: placements are not being re-drawn")
	}
	if r.MeanGain() < 2 {
		t.Errorf("mean EAR/SDR gain %.1fx, want >= 2", r.MeanGain())
	}
	out := Fig7MCTable(rows).Render()
	if !strings.Contains(out, "±") {
		t.Errorf("table missing error bars:\n%s", out)
	}
	chart := Fig7MCChart(rows).Render(50)
	if !strings.Contains(chart, "±") || !strings.Contains(chart, "-") {
		t.Errorf("chart missing error bars:\n%s", chart)
	}
}

func TestFig8MCAggregates(t *testing.T) {
	counts := []int{1, 2}
	rows, err := Fig8MC([]int{4}, counts, mcReplicates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byCount := map[int]float64{}
	for _, r := range rows {
		if r.Jobs.Count() != mcReplicates {
			t.Errorf("cell (%d,%d) folded %d replicates", r.Mesh, r.Controllers, r.Jobs.Count())
		}
		byCount[r.Controllers] = r.Jobs.Mean()
	}
	// More controllers must not hurt the expected lifetime.
	if byCount[2] < byCount[1] {
		t.Errorf("mean jobs fell with more controllers: %v", byCount)
	}
	if out := Fig8MCTable(rows).Render(); !strings.Contains(out, "±") {
		t.Errorf("Fig8MC table missing error bars:\n%s", out)
	}
	if out := Fig8MCChart(rows, counts).Render(40); !strings.Contains(out, "2 controllers") {
		t.Errorf("Fig8MC chart incomplete:\n%s", out)
	}
}

func TestMCSweepsPropagateErrors(t *testing.T) {
	if _, err := Fig7MC([]int{-1}, 2, 1); err == nil {
		t.Error("Fig7MC accepted a negative mesh size")
	}
	if _, err := Fig7MC([]int{4}, 0, 1); err == nil {
		t.Error("Fig7MC accepted zero replications")
	}
	if _, err := Fig8MC([]int{4}, []int{-3}, 2, 1); err == nil {
		t.Error("Fig8MC accepted a negative controller count")
	}
}

// TestReplicatedSweepsRecordSpans: the replicated sweeps run their
// campaigns and searches on the sweep's own pool, so the flight recorder
// attached with WithSpans sees their cells like any other sweep's.
func TestReplicatedSweepsRecordSpans(t *testing.T) {
	sweeps := map[string]func(Option) error{
		"fig7-mc": func(o Option) error { _, err := Fig7MC([]int{4}, 2, 1, o); return err },
		"fig8-mc": func(o Option) error { _, err := Fig8MC([]int{4}, []int{1}, 2, 1, o); return err },
		"opt-gap": func(o Option) error { _, err := OptGap([]int{4}, 2, 2, 1, o); return err },
	}
	for name, run := range sweeps {
		s := &trace.Spans{}
		if err := run(Options(WithWorkers(2), WithSpans(s))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() == 0 {
			t.Errorf("%s recorded no span", name)
		}
	}
}

// TestReplicatedSweepSpanNamesUnique runs etbench's `-experiment fig7-mc
// -sizes 4 -replications 70 -workers 2` sweep, whose campaigns run in
// batches of 64 and 6 replicates, so the pool restarts its cell indices
// four times. Every recorded span must still have its own name, and the
// table must not change with the recorder attached.
func TestReplicatedSweepSpanNamesUnique(t *testing.T) {
	plain, err := Fig7MC([]int{4}, 70, 1, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	s := &trace.Spans{}
	spanned, err := Fig7MC([]int{4}, 70, 1, Options(WithWorkers(2), WithSpans(s)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fig7MCTable(spanned).Render(), Fig7MCTable(plain).Render(); got != want {
		t.Errorf("table with spans:\n%s\nwithout:\n%s", got, want)
	}
	seen := map[string]bool{}
	for _, sp := range s.Spans() {
		if seen[sp.Name] {
			t.Errorf("span name %q recorded twice", sp.Name)
		}
		seen[sp.Name] = true
	}
	if len(seen) != 140 {
		t.Errorf("%d distinct span names, want 140 (2 algorithms x 70 replicates)", len(seen))
	}
}
