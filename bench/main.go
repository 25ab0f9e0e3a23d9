// Command etperf is the repository benchmark. One invocation runs one
// workload: it sets the workload up several times, runs its operations for a
// fixed measuring window, checks every output against the goldens in
// testdata/, and prints one JSON result line — the end-to-end metrics of the
// untraced run, or with --trace 1 the per-layer metrics of a traced pass.
//
//	bash bench/run.sh --workload mesh-16 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare base.jsonl change.jsonl
//
// README.md lists the workloads, the metrics and how their bounds were set.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

const (
	// defaultSeed is the seed the goldens were recorded at.
	defaultSeed = 1
	// setupRepeats is how often a run sets its workload up; setup_s is the
	// median.
	setupRepeats = 3
	// workers bounds the load every workload puts on the host: sweep
	// workers, serve clients and serve admission slots.
	workers = 2
	// buildDir is where run.sh builds the benchmark; the serve workload's
	// caches and the traced runs' Chrome traces go there too.
	buildDir = ".bench_build"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
	// optional metrics belong to a layer some workloads never reach; they
	// read 0 there.
	optional bool
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{name: "sim.frames", unit: "count"},
	{name: "sim.run_ms", unit: "ms"},
	{name: "sim.snapshot_s", unit: "s"},
	{name: "sim.schedule_s", unit: "s"},
	{name: "sim.control_full_s", unit: "s"},
	{name: "sim.control_incremental_s", unit: "s"},
	{name: "sim.control_idle_s", unit: "s"},
	{name: "sim.faults_share", unit: "ratio"},
	{name: "sim.control_share", unit: "ratio"},
	{name: "sim.phase_coverage", unit: "ratio"},
	{name: "sim.allocs_per_frame", unit: "count"},
	{name: "sim.new_us", unit: "us"},
	{name: "scenario.strategy_us", unit: "us"},
	{name: "controlplane.recomputes", unit: "count"},
	{name: "controlplane.full", unit: "count"},
	{name: "controlplane.incremental", unit: "count"},
	{name: "controlplane.recompute_ratio", unit: "ratio"},
	{name: "routing.weights_ms", unit: "ms"},
	{name: "routing.replay_ms", unit: "ms"},
	{name: "routing.full_ms", unit: "ms"},
	{name: "routing.repair_ms", unit: "ms"},
	{name: "routing.allpairs_full_ms", unit: "ms"},
	{name: "routing.tables_ms", unit: "ms"},
	{name: "routing.dirty_per_repair", unit: "count"},
	{name: "routing.affected_per_repair", unit: "count"},
	{name: "routing.repair_ratio", unit: "ratio"},
	{name: "routing.replay_coverage", unit: "ratio"},
	{name: "faults.injected", unit: "count", optional: true},
	{name: "faults.recovered", unit: "count", optional: true},
	{name: "runner.cells", unit: "count", optional: true},
	{name: "runner.utilization", unit: "ratio", optional: true},
	{name: "runner.cell_max_share", unit: "ratio", optional: true},
	{name: "serve.spec_us", unit: "us"},
	{name: "store.get_us", unit: "us"},
	{name: "store.put_us", unit: "us"},
	{name: "serve.hit_ratio", unit: "ratio", optional: true},
	{name: "serve.cold_share", unit: "ratio", optional: true},
	{name: "serve.queue_wait_share", unit: "ratio", optional: true},
	{name: "serve.simulate_share", unit: "ratio", optional: true},
	{name: "accuracy.table2_gap_pp", unit: "pp"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.spans", unit: "count"},
	{name: "host.ref_ms", unit: "ms"},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-sweep", "mesh-16", "chaos-8x8", "serve-mixed"}

// values collects one run's measurements by metric name.
type values map[string]float64

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit turns measurements into the metrics of defs; every non-optional
// metric must have been measured.
func emit(defs []metricDef, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok && !d.optional {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// env is what every workload of one run shares.
type env struct {
	seed uint64
	// dir holds the run's scratch files: disk caches and Chrome traces.
	dir    string
	checks *checks
}

// checks collects correctness failures that are not failed operations:
// goldens missed during set-up, traced runs that differ from untraced ones,
// replays that disagree with the live run.
type checks struct {
	mu   sync.Mutex
	msgs []string
}

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "etperf: check failed:", msg)
	c.mu.Lock()
	c.msgs = append(c.msgs, msg)
	c.mu.Unlock()
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs) == 0
}

// window is what a workload's measuring window produced.
type window struct {
	// lat holds one wall-clock latency per attempted operation.
	lat []time.Duration
	// elapsed is the time spent in measuring segments.
	elapsed time.Duration
	failed  int
	// done is set by a workload whose operations ran out before the window.
	done bool
}

// segment is the length of one measuring segment; the reference
// computation is timed between segments.
const segment = time.Second

// A workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the inputs and warms the program. It runs several
	// times; each call replaces the state of the previous one.
	setup() error
	// measure runs operations until d has elapsed and adds them, and the
	// time they took, to w. It is called once per measuring segment. With
	// traced set it may record its own operations' layer timings.
	measure(d time.Duration, traced bool, w *window) error
	// probeSpecs are the scenarios whose simulations the traced pass
	// replays layer by layer.
	probeSpecs() []scenario.Spec
	// layers adds the per-layer metrics only this workload measures.
	layers(v values) error
	close()
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "paper-sweep":
		return newPaperSweep(e, experiments.PaperMeshSizes()), nil
	case "mesh-16":
		return newMesh16(e, 16)
	case "chaos-8x8":
		return newChaos(e)
	case "serve-mixed":
		return newServeMixed(e, 0), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of: %s)", name, strings.Join(workloadNames, ", "))
}

// run sets w up setupRepeats times, measures it for d in segments, and
// returns the result line: end-to-end metrics, or per-layer metrics when
// traced.
func run(name string, w workload, e *env, d time.Duration, traced bool) (result, error) {
	defer w.close()
	ref, err := newRefWork()
	if err != nil {
		return result{}, err
	}
	defer ref.close()
	refs := []float64{ref.sample().Seconds()}
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		refs = append(refs, ref.sample().Seconds())
	}
	var win window
	for !win.done && (len(win.lat) == 0 || win.elapsed < d) {
		if err := w.measure(min(segment, d-win.elapsed), traced, &win); err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		refs = append(refs, ref.sample().Seconds())
	}
	refRun := median(refs)
	fmt.Fprintf(os.Stderr, "etperf: %s: %d operations in %v, reference computation %.3f ms (nominal %v)\n",
		name, len(win.lat), win.elapsed.Round(time.Millisecond), 1000*refRun, refNominal)

	v := values{}
	defs := endToEnd
	if traced {
		defs = perLayer
		v["host.ref_ms"] = 1000 * refRun
		if err := probeLayers(e, name, w.probeSpecs(), v); err != nil {
			return result{}, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		if err := w.layers(v); err != nil {
			return result{}, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		gap, err := table2GapPP()
		if err != nil {
			return result{}, fmt.Errorf("%s: table 2: %w", name, err)
		}
		v["accuracy.table2_gap_pp"] = gap
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		// Host times at the reference speed (see hostspeed.go).
		scale := refNominal.Seconds() / refRun
		v["setup_s"] = median(setups) * scale
		// The reference computation's memory is resident from the start of
		// the run to its end, so it adds exactly refBytes to the peak.
		v["peak_rss_mb"] = rss - float64(refBytes)/(1<<20)
		v["op_p50_ms"] = median(millis(win.lat)) * scale
		v["ops_per_s"] = float64(len(win.lat)) / win.elapsed.Seconds() / scale
	}
	m, err := emit(defs, v)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	return result{
		Correct:   win.failed == 0 && e.checks.ok(),
		Attempted: len(win.lat),
		Failed:    win.failed,
		Metrics:   m,
	}, nil
}

// table2GapPP is the simulator's error against the only published reference
// in the repository: the mean |ours − paper| of J(EAR)/J* over Table 2's
// mesh sizes, in percentage points.
func table2GapPP() (float64, error) {
	rows, err := experiments.Table2(experiments.PaperMeshSizes(), experiments.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Abs(100*r.Achieved - 100*r.PaperEARJobs/r.PaperUpperBound)
	}
	return sum / float64(len(rows)), nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// parseSeed accepts any decimal integer; negative seeds wrap.
func parseSeed(s string) (uint64, error) {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u, nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("seed %q: %w", s, err)
	}
	return uint64(i), nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seedArg = flag.String("seed", strconv.Itoa(defaultSeed), "workload seed; the inputs are a pure function of it")
		seconds = flag.Float64("seconds", 20, "length of the measuring window in seconds")
		traceN  = flag.Int("trace", 0, "1 = make the traced pass and print the per-layer metrics instead of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two files of result lines (base, then change) by the rules in README.md")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files: base.jsonl change.jsonl"))
		}
		regressed, err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *traceN != 0 && *traceN != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traceN))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fatal(err)
	}
	dir, err := filepath.Abs(buildDir)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: seed, dir: dir, checks: &checks{}}
	w, err := newWorkload(*name, e)
	if err != nil {
		fatal(err)
	}
	res, err := run(*name, w, e, time.Duration(*seconds*float64(time.Second)), *traceN == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etperf:", err)
	os.Exit(1)
}
