package main

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// defsOf returns the names and units of a metric catalog.
func defsOf(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

func specDefs(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := specDefs(spec.EndToEnd), defsOf(endToEnd); !maps.Equal(got, want) {
		t.Errorf("end_to_end metrics %v, program emits %v", got, want)
	}
	if got, want := specDefs(spec.PerLayer), defsOf(perLayer); !maps.Equal(got, want) {
		t.Errorf("per_layer metrics %v, program emits %v", got, want)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
}

// smallWorkloads are the four workloads shrunk for a quick run: sizes {4},
// a 6x6 mesh for the 16x16 one, 200 requests.
func smallWorkloads(t *testing.T, e *env) map[string]workload {
	t.Helper()
	mesh, err := newMesh16(e, 6)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := newChaos(e)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload{
		"paper-sweep": newPaperSweep(e, []int{4}),
		"mesh-16":     mesh,
		"chaos-8x8":   chaos,
		"serve-mixed": newServeMixed(e, 200),
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, traced := range []bool{false, true} {
		e := &env{seed: defaultSeed, dir: t.TempDir(), checks: &checks{}}
		for _, name := range workloadNames {
			w := smallWorkloads(t, e)[name]
			// A minute is never reached: the request cap ends serve-mixed,
			// and the others stop after their first operation.
			d := time.Minute
			if name != "serve-mixed" {
				d = time.Nanosecond
			}
			res, err := run(name, w, e, d, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%q",
					name, traced, res.Correct, res.Attempted, res.Failed, e.checks.msgs)
			}
			want := defsOf(endToEnd)
			if traced {
				want = defsOf(perLayer)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s traced=%v: emitted %v, want %v", name, traced, got, want)
			}
			if name == "serve-mixed" && res.Attempted != 200 {
				t.Errorf("serve-mixed sent %d requests, want 200", res.Attempted)
			}
		}
	}
}

func TestTracedRunsMatchAndReplaySplitsAreExact(t *testing.T) {
	e := &env{seed: 3, dir: t.TempDir(), checks: &checks{}}
	chaos, err := newChaos(e)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := newMesh16(e, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The probe fails a check when the traced bytes differ from the
	// untraced ones or the replayed full/incremental split differs from
	// the live one; the sharded chaos plane replays one lane per region.
	specs := append(mesh.probeSpecs(), chaos.probeSpecs()...)
	var tot probeTotals
	for _, sp := range specs {
		if _, err := tot.probe(e, sp, e.dir+"/trace.json"); err != nil {
			t.Fatal(err)
		}
	}
	if !e.checks.ok() {
		t.Fatalf("checks failed: %q", e.checks.msgs)
	}
	if tot.replay.nFull != tot.full || tot.replay.nRepair != tot.repair || tot.repair == 0 {
		t.Errorf("replayed split %d/%d, live %d/%d", tot.replay.nFull, tot.replay.nRepair, tot.full, tot.repair)
	}
	if tot.injected == 0 {
		t.Error("the chaos probe injected no fault")
	}
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	const n = 5 * serveBlock
	stream := func(seed uint64) []string {
		var out []string
		for i := 0; i < n; i++ {
			hot, block := schedule(seed, i)
			if hot >= 0 {
				out = append(out, string(hotSpecs[hot]))
			} else {
				out = append(out, string(coldSpec(seed, block)))
			}
		}
		return out
	}
	a, b, c := stream(7), stream(7), stream(8)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two request streams")
	}
	colds := func(s []string) []string {
		var out []string
		for _, x := range s {
			if strings.Contains(x, "MappingSeed") {
				out = append(out, x)
			}
		}
		return out
	}
	ca, cc := colds(a), colds(c)
	if len(ca) != n/serveBlock || len(cc) != n/serveBlock {
		t.Fatalf("cold specs per stream: %d and %d, want %d", len(ca), len(cc), n/serveBlock)
	}
	for _, x := range ca {
		if slices.Contains(cc, x) {
			t.Errorf("seeds 7 and 8 share cold spec %s", x)
		}
	}
	if slices.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}

	s1, s2 := chaosSeeds(1), chaosSeeds(2)
	if !slices.Equal(s1, chaosSeeds(1)) || s1[0] != 1 {
		t.Errorf("chaos seeds of the default seed: %v", s1)
	}
	for _, x := range s1 {
		if slices.Contains(s2, x) {
			t.Errorf("seeds 1 and 2 share fault schedule seed %d", x)
		}
	}
	e1 := &env{seed: 1, checks: &checks{}}
	e2 := &env{seed: 2, checks: &checks{}}
	c1, err := newChaos(e1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := newChaos(e2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.specs[0].Faults == c2.specs[0].Faults || !strings.HasSuffix(c1.specs[0].Faults, "seed=1") {
		t.Errorf("chaos fault schedules %q and %q", c1.specs[0].Faults, c2.specs[0].Faults)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func bound(x float64) *float64 { return &x }

func TestJudge(t *testing.T) {
	seq := func(from, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = from + step*float64(i%5)
		}
		return out
	}
	cases := []struct {
		name         string
		base, change []float64
		better       string
		bound        *float64
		want         string
	}{
		// 100..104 against 90..94: every pair wins, the gap beats the IQR.
		{"clear win", seq(100, 1), seq(90, 1), "lower", bound(0.1), verdictWin},
		{"win on a higher-is-better metric", seq(100, 1), seq(110, 1), "higher", bound(0.1), verdictWin},
		{"within the bound", seq(100, 1), seq(102, 1), "lower", bound(0.1), verdictUnchanged},
		{"worse than the bound", seq(100, 1), seq(120, 1), "lower", bound(0.1), verdictRegression},
		// IQR of 10..50 is half the median: wider than the 10% bound.
		{"spread wider than the bound", seq(10, 10), seq(12, 10), "lower", bound(0.1), verdictUnresolved},
		{"no bound, no win", seq(100, 1), seq(101, 1), "lower", nil, verdictNoClaim},
		{"no bound, win", seq(100, 1), seq(50, 1), "lower", nil, verdictWin},
		// Eight of ten pairs better is not a win.
		{"eight wins of ten", seq(100, 1),
			[]float64{99, 100, 101, 102, 103, 99, 100, 101, 104, 105}, "lower", bound(0.1), verdictUnchanged},
		{"deterministic metric moved", []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
			[]float64{6, 6, 6, 6, 6, 6, 6, 6, 6, 6}, "lower", bound(0), verdictRegression},
	}
	for _, c := range cases {
		if got := judge(c.base, c.change, c.better, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.1)}}}
	runs := func(n int, v float64, failed int) []result {
		var out []result
		for i := 0; i < n; i++ {
			out = append(out, result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"op_p50_ms": {Value: v + float64(i%3), Unit: "ms"}},
			})
		}
		return out
	}
	var out bytes.Buffer
	if _, err := compare(spec, runs(9, 100, 0), runs(9, 100, 0), &out); err == nil {
		t.Error("nine pairs were accepted")
	}
	regressed, err := compare(spec, runs(10, 100, 0), runs(10, 130, 0), &out)
	if err != nil || !regressed {
		t.Errorf("a 30%% slowdown: regressed=%v err=%v", regressed, err)
	}
	regressed, err = compare(spec, runs(10, 100, 0), runs(10, 80, 1), &out)
	if err != nil || !regressed {
		t.Errorf("a faster change that fails operations: regressed=%v err=%v", regressed, err)
	}
	out.Reset()
	regressed, err = compare(spec, runs(10, 100, 0), runs(10, 80, 0), &out)
	if err != nil || regressed || !strings.Contains(out.String(), verdictWin) {
		t.Errorf("a 20%% speed-up: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
