package campaign

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestSeedStreamIndexAddressable(t *testing.T) {
	s := Stream{Base: 42}
	// The seeds of a replicate are a pure function of (base, index): reading
	// them in any order, repeatedly, gives the same values.
	a0, a1 := s.At(0), s.At(1)
	if s.At(1) != a1 || s.At(0) != a0 {
		t.Error("stream output changed between calls")
	}
	// Distinct indices and distinct channels draw distinct seeds.
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		seeds := s.At(i)
		seen[seeds.Mapping]++
		seen[seeds.Faults]++
	}
	if len(seen) != 2000 {
		t.Errorf("seed stream collided: %d distinct values from 2000 draws", len(seen))
	}
	// Different bases draw unrelated sequences.
	if (Stream{Base: 43}).At(0) == a0 {
		t.Error("different base seeds produced identical replicate seeds")
	}
}

func TestSeedStreamWordsAndChildren(t *testing.T) {
	s := Stream{Base: 42}
	// At is defined in terms of Word: replicate i's seeds are words 2i, 2i+1.
	for i := 0; i < 16; i++ {
		seeds := s.At(i)
		if seeds.Mapping != s.Word(uint64(2*i)) || seeds.Faults != s.Word(uint64(2*i+1)) {
			t.Fatalf("At(%d) disagrees with Word addressing", i)
		}
	}
	// Child streams are index-addressed and collision-free across children,
	// word indices and the parent's own sequence. In particular the diagonal
	// Sub(i).Word(k) vs Sub(i+1).Word(k-1) must not alias, which a naive
	// additive child base would.
	seen := map[uint64]string{}
	record := func(v uint64, label string) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("seed stream collided: %s == %s", label, prev)
		}
		seen[v] = label
	}
	for k := uint64(0); k < 100; k++ {
		record(s.Word(k), "parent")
	}
	for i := uint64(0); i < 20; i++ {
		child := s.Sub(i)
		for k := uint64(0); k < 100; k++ {
			record(child.Word(k), "child")
		}
	}
	// Purity: the same (base, child, word) address always draws the same
	// value.
	if s.Sub(3).Word(7) != s.Sub(3).Word(7) {
		t.Error("child stream draw is not a pure function of its address")
	}
}

// TestTransientChannelNoCollision pins the seed-channel layout: the
// Transient channel lives on Sub(0), so (a) its words never collide with the
// Mapping/Faults words of the parent sequence for any realistic campaign
// size, and (b) adding the channel left the original two-word replicate
// layout untouched — existing campaigns redraw exactly the seeds they drew
// before the channel existed.
func TestTransientChannelNoCollision(t *testing.T) {
	s := Stream{Base: 42}
	seen := map[uint64]string{}
	record := func(v uint64, label string) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("seed channels collided: %s == %s", label, prev)
		}
		seen[v] = label
	}
	for i := 0; i < 2000; i++ {
		seeds := s.At(i)
		record(seeds.Mapping, "mapping")
		record(seeds.Faults, "faults")
		record(seeds.Transient, "transient")
		// The layout contract, word by word.
		if seeds.Mapping != s.Word(uint64(2*i)) || seeds.Faults != s.Word(uint64(2*i+1)) {
			t.Fatalf("At(%d): Mapping/Faults moved off words 2i/2i+1", i)
		}
		if seeds.Transient != s.Sub(transientChannel).Word(uint64(i)) {
			t.Fatalf("At(%d): Transient moved off Sub(%d)", i, transientChannel)
		}
	}
}

// TestReplicateReseedsFaultSchedule pins the chaos-campaign contract: a
// replicate's runtime fault schedule is re-seeded from the Transient channel
// while every other clause survives the round trip, and a malformed clause
// string is passed through untouched to fail in Strategy with its parse
// error.
func TestReplicateReseedsFaultSchedule(t *testing.T) {
	base := scenario.Spec{
		Name:   "chaos-mc-test",
		Mesh:   5,
		Faults: "link=0.05:8,crash=0.02:12,seed=1",
	}
	sp := Spec{Scenario: base, Replications: 10, Seed: 7}
	r3 := sp.Replicate(3)
	want := Stream{Base: 7}.At(3).Transient
	fsp, err := faults.ParseSpec(r3.Faults)
	if err != nil {
		t.Fatalf("replicate fault schedule %q does not parse: %v", r3.Faults, err)
	}
	if fsp.Seed != want {
		t.Errorf("replicate fault seed = %d, want Transient draw %d", fsp.Seed, want)
	}
	if fsp.LinkRate != 0.05 || fsp.LinkRecoveryFrames != 8 || fsp.NodeRate != 0.02 || fsp.NodeRecoveryFrames != 12 {
		t.Errorf("re-seeding perturbed non-seed clauses: %q", r3.Faults)
	}
	if sp.Replicate(3).Faults != r3.Faults {
		t.Error("replicate fault schedule not deterministic")
	}
	if a, b := sp.Replicate(3).Faults, sp.Replicate(4).Faults; a == b {
		t.Error("adjacent replicates share a fault-schedule seed")
	}

	// A scenario without a schedule stays without one.
	noFaults := sp
	noFaults.Scenario.Faults = ""
	if got := noFaults.Replicate(3).Faults; got != "" {
		t.Errorf("empty schedule became %q", got)
	}
	// Malformed schedules pass through for Normalized (and so Strategy) to reject.
	malformed := sp
	malformed.Scenario.Faults = "link=broken"
	if got := malformed.Replicate(3).Faults; got != "link=broken" {
		t.Errorf("malformed schedule rewritten to %q", got)
	}
	if _, err := malformed.Replicate(3).Strategy(); err == nil {
		t.Error("malformed schedule accepted by Strategy")
	}
}

func TestReplicateDerivesSeedsOnly(t *testing.T) {
	base := scenario.Spec{
		Name:    "mc-test",
		Mesh:    5,
		Mapping: scenario.MappingRandom,
	}
	sp := Spec{Scenario: base, Replications: 10, Seed: 7}
	r3 := sp.Replicate(3)
	want := Stream{Base: 7}.At(3)
	if r3.MappingSeed != want.Mapping || r3.FailedLinkSeed != want.Faults {
		t.Errorf("replicate seeds = %d/%d, want %d/%d",
			r3.MappingSeed, r3.FailedLinkSeed, want.Mapping, want.Faults)
	}
	// Everything but the seeds is the base scenario.
	r3.MappingSeed, r3.FailedLinkSeed = base.MappingSeed, base.FailedLinkSeed
	if r3 != base {
		t.Errorf("Replicate changed non-seed fields: %+v", r3)
	}
	if sp.Replicate(3) != sp.Replicate(3) {
		t.Error("Replicate not deterministic")
	}
	if sp.Replicate(3).MappingSeed == sp.Replicate(4).MappingSeed {
		t.Error("adjacent replicates share a mapping seed")
	}
}

// testWorkerCounts mirrors the determinism suites of internal/experiments:
// serial, a fixed small fan-out, and this machine's default.
func testWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestCampaignDeterministicAcrossWorkers is the acceptance-criterion test: a
// 100-replicate paper-default campaign produces byte-identical mean/CI/
// quantile output at every worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base, ok := scenario.Lookup("paper-default")
	if !ok {
		t.Fatal("paper-default not registered")
	}
	sp := Spec{Scenario: base, Replications: 100, Seed: 1}
	ref, err := Run(context.Background(), newPool(1), sp)
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref.Table().Render()
	if ref.Jobs.Count() != 100 {
		t.Fatalf("jobs aggregate folded %d replicates, want 100", ref.Jobs.Count())
	}
	for _, workers := range testWorkerCounts() {
		res, err := Run(context.Background(), newPool(workers), sp)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out := res.Table().Render(); out != refOut {
			t.Errorf("workers=%d: campaign output differs from the serial run:\n%s\nvs\n%s",
				workers, out, refOut)
		}
		if *res != *ref {
			t.Errorf("workers=%d: aggregate state differs from the serial run", workers)
		}
	}
}

// TestCampaignVarianceAcrossSeededDraws runs a campaign over a genuinely
// stochastic scenario (random mapping on a damaged fabric) and checks that
// the seed stream actually produces distinct draws — nonzero variance — while
// staying deterministic across worker counts and for a fixed seed.
func TestCampaignVarianceAcrossSeededDraws(t *testing.T) {
	base := scenario.Spec{
		Name:               "mc-variance",
		Mesh:               4,
		Mapping:            scenario.MappingRandom,
		FailedLinkFraction: 0.1,
	}
	sp := Spec{Scenario: base, Replications: 16, Seed: 3}
	ref, err := Run(context.Background(), newPool(1), sp)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Jobs.StdDev() == 0 {
		t.Error("random-mapping campaign produced zero variance: replicates are not being re-drawn")
	}
	if ref.Jobs.Min() == ref.Jobs.Max() {
		t.Error("every replicate completed the same number of jobs")
	}
	if ref.Jobs.CI95() <= 0 {
		t.Errorf("CI95 = %g, want > 0", ref.Jobs.CI95())
	}
	for _, workers := range testWorkerCounts()[1:] {
		res, err := Run(context.Background(), newPool(workers), sp)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *res != *ref {
			t.Errorf("workers=%d: aggregates differ from the serial run", workers)
		}
	}
	// A different campaign seed draws a different replicate sequence.
	other, err := Run(context.Background(), newPool(1), Spec{Scenario: base, Replications: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if other.Jobs == ref.Jobs {
		t.Error("different campaign seeds produced identical aggregates")
	}
}

// TestCampaignBatchSizeInvariant pins that the batch size only bounds memory:
// because results are folded in global replicate order, any batch size yields
// identical aggregates.
func TestCampaignBatchSizeInvariant(t *testing.T) {
	base := scenario.Spec{Mesh: 4, Mapping: scenario.MappingRandom}
	ref, err := run(context.Background(), newPool(2), Spec{Scenario: base, Replications: 7, Seed: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 64} {
		res, err := run(context.Background(), newPool(2), Spec{Scenario: base, Replications: 7, Seed: 2}, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Jobs != ref.Jobs || res.Lifetime != ref.Lifetime {
			t.Errorf("batch=%d: aggregates differ from the single-batch run", batch)
		}
		if res.Jobs.Count() != 7 {
			t.Errorf("batch=%d: folded %d replicates, want 7", batch, res.Jobs.Count())
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	if _, err := Run(context.Background(), newPool(0), Spec{Scenario: scenario.Spec{Mesh: 4}}); err == nil {
		t.Error("zero replications accepted")
	}
	if _, err := Run(context.Background(), newPool(0), Spec{Scenario: scenario.Spec{Mesh: -1}, Replications: 2}); err == nil {
		t.Error("invalid mesh accepted")
	}
	if _, err := Run(context.Background(), newPool(0), Spec{
		Scenario:     scenario.Spec{Mesh: 4, Algorithm: "nope"},
		Replications: 2,
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestCampaignContextCancelsRunningReplicate: cancelling the campaign's
// context aborts a replicate that is already simulating (through the
// strategy's Cancel channel) instead of letting it run to system death, and
// Run returns the context's error, not an aggregate.
func TestCampaignContextCancelsRunningReplicate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One 12x12 replicate simulates for seconds; the cancellation lands
	// mid-run.
	time.AfterFunc(20*time.Millisecond, cancel)
	res, err := Run(ctx, newPool(0), Spec{Scenario: scenario.Spec{Mesh: 12}, Replications: 1, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want context.Canceled", res, err)
	}
}

func TestCampaignResultRendering(t *testing.T) {
	res, err := Run(context.Background(), newPool(1), Spec{Scenario: scenario.Spec{Mesh: 4}, Replications: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	metrics := res.Metrics()
	if len(metrics) != 9 {
		t.Fatalf("got %d metrics", len(metrics))
	}
	for _, m := range metrics {
		if m.Summary.Count() != 3 {
			t.Errorf("metric %s folded %d replicates, want 3", m.Name, m.Summary.Count())
		}
	}
	tbl := res.Table()
	if len(tbl.Rows) != len(metrics) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(metrics))
	}
	out := tbl.Render()
	for _, want := range []string{"3 replicates", "seed 1", "jobs completed", "±95% CI", "P99"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(tbl.CSV(), "metric,mean") {
		t.Error("campaign CSV missing header")
	}
}

// TestCampaignPayloadVerification pins that replication preserves the
// payload-verification contract: verified scenarios surface their counters
// as extra metrics and AnyPayloadMismatch reflects the replicates.
func TestCampaignPayloadVerification(t *testing.T) {
	res, err := Run(context.Background(), newPool(1), Spec{
		Scenario:     scenario.Spec{Mesh: 4, VerifyPayload: true},
		Replications: 2,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics()) != 11 {
		t.Fatalf("verified campaign reports %d metrics, want 11 (incl. payload rows)", len(res.Metrics()))
	}
	if res.PayloadVerified.Max() <= 0 {
		t.Error("verified campaign recorded no verified payloads")
	}
	if res.AnyPayloadMismatch() {
		t.Errorf("reference AES produced mismatches: %+v", res.PayloadMismatches)
	}
	if !strings.Contains(res.Table().Render(), "AES payloads verified") {
		t.Error("campaign table missing the payload rows")
	}
	// A mismatch in any replicate must be visible through AnyPayloadMismatch.
	var withMismatch Result
	withMismatch.observe(&sim.Result{PayloadMismatches: 1})
	if !withMismatch.AnyPayloadMismatch() {
		t.Error("AnyPayloadMismatch missed a mismatching replicate")
	}
}

// TestCampaignAggregationAllocFree is the acceptance-criterion alloc guard:
// folding a replicate's sim.Result into a warm campaign Result — the only
// per-replicate work the campaign layer adds on top of the simulation — is
// allocation-free in steady state.
func TestCampaignAggregationAllocFree(t *testing.T) {
	spec := scenario.Spec{Mesh: 4}
	out, err := spec.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	// Warm-up: quantile estimators finish their collection phase after five
	// observations; steady state begins there.
	for i := 0; i < 8; i++ {
		res.observe(&out)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		res.observe(&out)
	}); allocs != 0 {
		t.Errorf("observe allocates %.1f objects per replicate, want 0", allocs)
	}
}

// TestCampaignReplicateReconstruction pins the debugging workflow: the seeds
// of any single replicate can be recomputed and its simulation re-run in
// isolation with the identical outcome.
func TestCampaignReplicateReconstruction(t *testing.T) {
	base := scenario.Spec{Mesh: 4, Mapping: scenario.MappingRandom}
	sp := Spec{Scenario: base, Replications: 6, Seed: 9}
	var direct [6]sim.Result
	for i := range direct {
		out, err := sp.Replicate(i).Simulate()
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = out
	}
	res, err := Run(context.Background(), newPool(4), sp)
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i := range direct {
		ref.observe(&direct[i])
	}
	if res.Jobs != ref.Jobs || res.Lifetime != ref.Lifetime || res.EnergyPJ != ref.EnergyPJ {
		t.Error("campaign aggregates differ from individually reconstructed replicates")
	}
}

// newPool returns a runner pool of n workers (n < 1 selects the default).
func newPool(n int) *runner.Pool { return runner.New(runner.WithWorkers(n)) }
