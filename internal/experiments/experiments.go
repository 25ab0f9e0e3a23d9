// Package experiments contains the harnesses that regenerate every table and
// figure of the paper's evaluation (Sec 7) plus the additional ablation
// studies listed in DESIGN.md. Each experiment returns plain row structs so
// the callers (cmd/etbench, the root-level benchmarks and the tests) can
// render, assert on or export them as needed.
//
// Every sweep enumerates declarative scenario.Spec values — the same
// representation behind `etsim -scenario` — and fans them out through
// runner.Grid/runner.Map, so a paper figure is nothing more than a list of
// specs plus a renderer.
package experiments

import (
	"fmt"

	"repro/internal/battery"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PaperMeshSizes are the square mesh sizes evaluated in the paper.
func PaperMeshSizes() []int { return []int{4, 5, 6, 7, 8} }

// PaperControllerCounts are the controller counts evaluated in Fig 8.
func PaperControllerCounts() []int { return []int{1, 2, 4, 7, 10} }

// ---------------------------------------------------------------------------
// Sweep execution options
// ---------------------------------------------------------------------------

// Option configures how a sweep executes. Every sweep fans its independent
// (mesh size, scenario) cells out over a runner.Pool; each cell constructs
// its own simulator, so results are element-for-element identical for every
// worker count.
type Option func(*config)

type config struct {
	workers int
	spans   *trace.Spans
}

// WithWorkers sets the number of worker goroutines a sweep may use. Values
// below 1 (and the default) select runner.DefaultWorkers(), i.e. one worker
// per CPU. WithWorkers(1) forces a serial run.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithSpans attaches a flight recorder to the sweep's worker pool: every
// executed cell lands in s as one span, laid out per worker, exportable as
// Chrome trace-event JSON (etbench -spans). Recording is observational
// only — cell results and their order are unaffected. A nil s is ignored.
func WithSpans(s *trace.Spans) Option {
	return func(c *config) { c.spans = s }
}

// Options combines several options into one, so callers can thread a single
// value through every sweep invocation.
func Options(opts ...Option) Option {
	return func(c *config) {
		for _, o := range opts {
			if o != nil {
				o(c)
			}
		}
	}
}

// newPool builds the worker pool for one sweep invocation.
func newPool(opts []Option) *runner.Pool {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ropts := []runner.Option{runner.WithWorkers(cfg.workers)}
	if cfg.spans != nil {
		ropts = append(ropts, runner.WithCellObserver(cfg.spans.CellObserver()))
	}
	return runner.New(ropts...)
}

// ---------------------------------------------------------------------------
// Fig 2: thin-film battery discharge curve
// ---------------------------------------------------------------------------

// Fig2Point is one sample of the regenerated discharge curve.
type Fig2Point struct {
	DepthOfDischarge float64
	Voltage          float64
}

// Fig2 regenerates the discharge voltage curve of the thin-film battery model
// by discharging a fresh battery with small, well-rested draws (the
// quasi-static condition under which the published curve was measured) and
// sampling the terminal voltage.
func Fig2(samples int) []Fig2Point {
	if samples < 2 {
		samples = 2
	}
	b := battery.NewThinFilm()
	step := b.NominalPJ() / float64(samples*50)
	points := []Fig2Point{{DepthOfDischarge: 0, Voltage: b.Voltage()}}
	next := 1.0 / float64(samples)
	for !b.Dead() {
		if err := b.Draw(step); err != nil {
			break
		}
		b.Rest(5_000_000)
		dod := b.DeliveredPJ() / b.NominalPJ()
		if dod >= next {
			points = append(points, Fig2Point{DepthOfDischarge: dod, Voltage: b.Voltage()})
			// One Draw step can cross several 1/samples thresholds at once
			// (always when samples exceeds the step resolution); catch next up
			// past the current depth so the skipped thresholds don't make
			// later samples fire early and bunch up.
			for next <= dod {
				next += 1.0 / float64(samples)
			}
		}
	}
	// Close the curve with the cutoff point at which the cell is declared
	// dead, as in the published figure.
	points = append(points, Fig2Point{
		DepthOfDischarge: b.DeliveredPJ() / b.NominalPJ(),
		Voltage:          battery.DefaultCutoffVoltage,
	})
	return points
}

// Fig2Table renders the curve as a table.
func Fig2Table(points []Fig2Point) *stats.Table {
	t := stats.NewTable("Fig 2: thin-film battery discharge curve (regenerated)",
		"depth of discharge", "voltage [V]")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.2f", p.DepthOfDischarge), fmt.Sprintf("%.3f", p.Voltage))
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig 7: EAR vs SDR jobs completed, plus control-overhead percentages
// ---------------------------------------------------------------------------

// Fig7Row is one mesh size of the Fig 7 comparison.
type Fig7Row struct {
	Mesh        int
	EARJobs     int
	SDRJobs     int
	Gain        float64
	EAROverhead float64 // control-information overhead fraction under EAR
}

// Fig7 runs the EAR-vs-SDR comparison of Sec 7.1 on the given mesh sizes:
// thin-film batteries, a single infinite-energy controller and one job in
// flight. The mesh sizes are evaluated in parallel; each cell runs its own
// pair of scenario specs.
func Fig7(sizes []int, opts ...Option) ([]Fig7Row, error) {
	return runner.Map(newPool(opts), sizes, func(_ int, n int) (Fig7Row, error) {
		earRes, err := scenario.Spec{Mesh: n}.Simulate()
		if err != nil {
			return Fig7Row{}, err
		}
		sdrRes, err := scenario.Spec{Mesh: n, Algorithm: scenario.AlgorithmSDR}.Simulate()
		if err != nil {
			return Fig7Row{}, err
		}
		row := Fig7Row{
			Mesh:        n,
			EARJobs:     earRes.JobsCompleted,
			SDRJobs:     sdrRes.JobsCompleted,
			EAROverhead: earRes.Energy.ControlOverheadFraction(),
		}
		if sdrRes.JobsCompleted > 0 {
			row.Gain = float64(earRes.JobsCompleted) / float64(sdrRes.JobsCompleted)
		}
		return row, nil
	})
}

// Fig7Table renders the Fig 7 data as a table including the control-overhead
// percentages quoted in the Sec 7.1 text.
func Fig7Table(rows []Fig7Row) *stats.Table {
	t := stats.NewTable("Fig 7: number of completed jobs, EAR vs SDR (2-bit control medium)",
		"mesh", "EAR jobs", "SDR jobs", "EAR/SDR", "control overhead")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.EARJobs, r.SDRJobs,
			fmt.Sprintf("%.1fx", r.Gain), fmt.Sprintf("%.1f%%", 100*r.EAROverhead))
	}
	return t
}

// Fig7Chart renders the comparison as an ASCII bar chart.
func Fig7Chart(rows []Fig7Row) *stats.Chart {
	c := stats.NewChart("Fig 7: # of jobs completed (EAR vs SDR)", "mesh", "# of jobs")
	ear := c.AddSeries("EAR")
	sdr := c.AddSeries("SDR")
	for _, r := range rows {
		ear.Add(float64(r.Mesh), float64(r.EARJobs))
		sdr.Add(float64(r.Mesh), float64(r.SDRJobs))
	}
	return c
}

// ---------------------------------------------------------------------------
// Table 2: EAR (ideal battery) vs the Theorem-1 upper bound
// ---------------------------------------------------------------------------

// Table2Row is one mesh size of Table 2.
type Table2Row struct {
	Mesh       int
	EARJobs    int
	UpperBound float64
	Achieved   float64
	// PaperEARJobs and PaperUpperBound echo the values printed in the paper
	// for side-by-side comparison.
	PaperEARJobs    float64
	PaperUpperBound float64
}

// paperTable2 holds the published Table 2 values.
var paperTable2 = map[int][2]float64{
	4: {62.8, 131.42},
	5: {92, 205.25},
	6: {132.7, 295.70},
	7: {194, 402.48},
	8: {234, 525.69},
}

// Table2 reproduces Table 2: EAR with the ideal battery model against the
// analytical upper bound of Theorem 1. The mesh sizes are evaluated in
// parallel.
func Table2(sizes []int, opts ...Option) ([]Table2Row, error) {
	return runner.Map(newPool(opts), sizes, func(_ int, n int) (Table2Row, error) {
		strategy, err := scenario.Spec{Mesh: n, Battery: scenario.BatteryIdeal}.Strategy()
		if err != nil {
			return Table2Row{}, err
		}
		res, err := strategy.Simulate()
		if err != nil {
			return Table2Row{}, err
		}
		bound, err := strategy.UpperBound()
		if err != nil {
			return Table2Row{}, err
		}
		row := Table2Row{
			Mesh:       n,
			EARJobs:    res.JobsCompleted,
			UpperBound: bound.Jobs,
			Achieved:   bound.Achieved(float64(res.JobsCompleted)),
		}
		if paper, ok := paperTable2[n]; ok {
			row.PaperEARJobs = paper[0]
			row.PaperUpperBound = paper[1]
		}
		return row, nil
	})
}

// Table2Table renders the reproduction next to the published numbers.
func Table2Table(rows []Table2Row) *stats.Table {
	t := stats.NewTable("Table 2: EAR (ideal battery) vs the Theorem-1 upper bound",
		"mesh", "J(EAR)", "J* (ours)", "J(EAR)/J*", "paper J(EAR)", "paper J*", "paper ratio")
	for _, r := range rows {
		paperRatio := ""
		if r.PaperUpperBound > 0 {
			paperRatio = fmt.Sprintf("%.1f%%", 100*r.PaperEARJobs/r.PaperUpperBound)
		}
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.EARJobs,
			fmt.Sprintf("%.2f", r.UpperBound), fmt.Sprintf("%.1f%%", 100*r.Achieved),
			r.PaperEARJobs, r.PaperUpperBound, paperRatio)
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig 8: effect of the number of controllers on system lifetime
// ---------------------------------------------------------------------------

// Fig8Row is one (mesh size, controller count) point of Fig 8.
type Fig8Row struct {
	Mesh        int
	Controllers int
	Jobs        int
	Reason      string
}

// Fig8 reproduces the controller-failure study of Sec 7.3: EAR with
// thin-film batteries on both nodes and controllers, sweeping the number of
// controllers for every mesh size.
// The full (mesh size × controller count) grid is evaluated in parallel,
// one cell per simulation, in the row-major order of the former nested loops.
func Fig8(sizes, controllerCounts []int, opts ...Option) ([]Fig8Row, error) {
	cells := runner.Grid(sizes, controllerCounts)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, int]) (Fig8Row, error) {
		n, c := cell.A, cell.B
		res, err := scenario.Spec{Mesh: n, Controllers: c, FiniteControllers: true}.Simulate()
		if err != nil {
			return Fig8Row{}, err
		}
		return Fig8Row{Mesh: n, Controllers: c, Jobs: res.JobsCompleted, Reason: string(res.Reason)}, nil
	})
}

// Fig8Table renders the Fig 8 data with one row per mesh size and one column
// per controller count.
func Fig8Table(rows []Fig8Row, controllerCounts []int) *stats.Table {
	cols := []string{"mesh"}
	for _, c := range controllerCounts {
		cols = append(cols, fmt.Sprintf("%d controllers", c))
	}
	t := stats.NewTable("Fig 8: jobs completed vs number of controllers (EAR, finite controller batteries)", cols...)
	byMesh := map[int]map[int]int{}
	var meshes []int
	for _, r := range rows {
		if _, ok := byMesh[r.Mesh]; !ok {
			byMesh[r.Mesh] = map[int]int{}
			meshes = append(meshes, r.Mesh)
		}
		byMesh[r.Mesh][r.Controllers] = r.Jobs
	}
	for _, m := range meshes {
		row := []interface{}{fmt.Sprintf("%dx%d", m, m)}
		for _, c := range controllerCounts {
			row = append(row, byMesh[m][c])
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8Chart renders the controller sweep as an ASCII chart with one series
// per controller count.
func Fig8Chart(rows []Fig8Row, controllerCounts []int) *stats.Chart {
	c := stats.NewChart("Fig 8: effect of the number of controllers on system lifetime", "mesh", "# of jobs")
	series := map[int]*stats.Series{}
	for _, count := range controllerCounts {
		series[count] = c.AddSeries(fmt.Sprintf("EAR, %d controllers", count))
	}
	for _, r := range rows {
		if s, ok := series[r.Controllers]; ok {
			s.Add(float64(r.Mesh), float64(r.Jobs))
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Ablation A1: sensitivity to the EAR weighting exponent Q
// ---------------------------------------------------------------------------

// AblationQRow is one (mesh, Q) sample.
type AblationQRow struct {
	Mesh int
	Q    float64
	Jobs int
}

// AblationEARWeight sweeps the base Q of the EAR weighting function
// f(n) = Q^(levels-1-n). Q = 1 disables the battery information entirely
// (every penalty becomes 1), so the sweep shows how strongly EAR relies on it.
func AblationEARWeight(sizes []int, qs []float64, opts ...Option) ([]AblationQRow, error) {
	cells := runner.Grid(sizes, qs)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, float64]) (AblationQRow, error) {
		n, q := cell.A, cell.B
		res, err := scenario.Spec{Mesh: n, EARQ: q}.Simulate()
		if err != nil {
			return AblationQRow{}, err
		}
		return AblationQRow{Mesh: n, Q: q, Jobs: res.JobsCompleted}, nil
	})
}

// AblationQTable renders the Q sweep.
func AblationQTable(rows []AblationQRow) *stats.Table {
	t := stats.NewTable("Ablation A1: EAR weighting base Q", "mesh", "Q", "jobs completed")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Q, r.Jobs)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation A2: mapping strategy
// ---------------------------------------------------------------------------

// AblationMappingRow is one (mesh, mapping strategy) sample.
type AblationMappingRow struct {
	Mesh     int
	Strategy string
	Jobs     int
}

// AblationMapping compares the paper's checkerboard mapping against the
// Theorem-1 proportional mapping, row-major clustering and a random mapping,
// all under EAR.
// The (mesh size × mapping) grid is evaluated in parallel. The proportional
// spec derives its weights from the analytical bound inside Spec.Strategy,
// which is cheap, so the cell that needs them recomputes them instead of
// sharing a probe across cells.
func AblationMapping(sizes []int, opts ...Option) ([]AblationMappingRow, error) {
	mappings := []string{
		scenario.MappingCheckerboard,
		scenario.MappingProportional,
		scenario.MappingRowMajor,
		scenario.MappingRandom,
	}
	cells := runner.Grid(sizes, mappings)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, string]) (AblationMappingRow, error) {
		n := cell.A
		strategy, err := scenario.Spec{Mesh: n, Mapping: cell.B, MappingSeed: 1}.Strategy()
		if err != nil {
			return AblationMappingRow{}, err
		}
		res, err := strategy.Simulate()
		if err != nil {
			return AblationMappingRow{}, err
		}
		return AblationMappingRow{Mesh: n, Strategy: strategy.Mapper.Name(), Jobs: res.JobsCompleted}, nil
	})
}

// AblationMappingTable renders the mapping comparison.
func AblationMappingTable(rows []AblationMappingRow) *stats.Table {
	t := stats.NewTable("Ablation A2: module-to-node mapping strategy (EAR)", "mesh", "mapping", "jobs completed")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Strategy, r.Jobs)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation A3: battery model
// ---------------------------------------------------------------------------

// AblationBatteryRow is one (mesh, algorithm, battery model) sample.
type AblationBatteryRow struct {
	Mesh      int
	Algorithm string
	Battery   string
	Jobs      int
}

// AblationBattery quantifies how much of the EAR/SDR gap is contributed by
// the thin-film battery's rate-capacity effect by re-running both algorithms
// with the ideal battery model.
// The (mesh size × battery model × algorithm) grid is evaluated in parallel,
// flattened in the row-major order of the former nested loops. The cells
// share nothing but immutable spec values.
func AblationBattery(sizes []int, opts ...Option) ([]AblationBatteryRow, error) {
	type combo struct {
		label   string // display name used in the rendered table
		battery string // scenario.Spec battery value
		alg     string
	}
	combos := []combo{
		{"thin-film", scenario.BatteryThinFilm, scenario.AlgorithmEAR},
		{"thin-film", scenario.BatteryThinFilm, scenario.AlgorithmSDR},
		{"ideal", scenario.BatteryIdeal, scenario.AlgorithmEAR},
		{"ideal", scenario.BatteryIdeal, scenario.AlgorithmSDR},
	}
	cells := runner.Grid(sizes, combos)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, combo]) (AblationBatteryRow, error) {
		n := cell.A
		res, err := scenario.Spec{Mesh: n, Algorithm: cell.B.alg, Battery: cell.B.battery}.Simulate()
		if err != nil {
			return AblationBatteryRow{}, err
		}
		return AblationBatteryRow{
			Mesh: n, Algorithm: cell.B.alg, Battery: cell.B.label, Jobs: res.JobsCompleted,
		}, nil
	})
}

// AblationBatteryTable renders the battery-model comparison.
func AblationBatteryTable(rows []AblationBatteryRow) *stats.Table {
	t := stats.NewTable("Ablation A3: battery model vs routing algorithm", "mesh", "battery", "algorithm", "jobs completed")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Battery, r.Algorithm, r.Jobs)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation A4: concurrent jobs and deadlock recovery
// ---------------------------------------------------------------------------

// AblationConcurrencyRow is one (mesh, jobs-in-flight) sample.
type AblationConcurrencyRow struct {
	Mesh            int
	ConcurrentJobs  int
	JobsCompleted   int
	DeadlockReports int
}

// AblationConcurrency feeds multiple concurrent jobs into the system (Sec 7's
// closing remark) to exercise the deadlock recovery mechanism of the TDMA
// scheme.
// The (mesh size × jobs-in-flight) grid is evaluated in parallel. The jobs
// are concurrent inside one simulated TDMA frame, not across goroutines; each
// cell still owns a private simulator.
func AblationConcurrency(sizes []int, concurrency []int, opts ...Option) ([]AblationConcurrencyRow, error) {
	cells := runner.Grid(sizes, concurrency)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, int]) (AblationConcurrencyRow, error) {
		n, jobs := cell.A, cell.B
		res, err := scenario.Spec{Mesh: n, ConcurrentJobs: jobs}.Simulate()
		if err != nil {
			return AblationConcurrencyRow{}, err
		}
		return AblationConcurrencyRow{
			Mesh: n, ConcurrentJobs: jobs,
			JobsCompleted: res.JobsCompleted, DeadlockReports: res.DeadlockReports,
		}, nil
	})
}

// ---------------------------------------------------------------------------
// Ablation A5: link failures (wear-and-tear)
// ---------------------------------------------------------------------------

// AblationLinkRow is one (mesh, failed-link fraction) sample.
type AblationLinkRow struct {
	Mesh     int
	Fraction float64
	EARJobs  int
	SDRJobs  int
}

// AblationLinkFailures removes a growing fraction of the woven interconnects
// before the simulation starts — the wear-and-tear scenario that motivates
// the paper's network-based architecture — and measures how gracefully EAR
// and SDR degrade on the damaged fabric.
// The (mesh size × failure fraction) grid is evaluated in parallel; link
// removal is seeded deterministically per cell, so fan-out cannot change
// which links fail.
func AblationLinkFailures(sizes []int, fractions []float64, opts ...Option) ([]AblationLinkRow, error) {
	cells := runner.Grid(sizes, fractions)
	return runner.Map(newPool(opts), cells, func(_ int, cell runner.Cell2[int, float64]) (AblationLinkRow, error) {
		n, f := cell.A, cell.B
		earRes, err := scenario.Spec{Mesh: n, FailedLinkFraction: f, FailedLinkSeed: 1}.Simulate()
		if err != nil {
			return AblationLinkRow{}, err
		}
		sdrRes, err := scenario.Spec{
			Mesh: n, Algorithm: scenario.AlgorithmSDR, FailedLinkFraction: f, FailedLinkSeed: 1,
		}.Simulate()
		if err != nil {
			return AblationLinkRow{}, err
		}
		return AblationLinkRow{
			Mesh: n, Fraction: f, EARJobs: earRes.JobsCompleted, SDRJobs: sdrRes.JobsCompleted,
		}, nil
	})
}

// AblationLinkTable renders the link-failure sweep.
func AblationLinkTable(rows []AblationLinkRow) *stats.Table {
	t := stats.NewTable("Ablation A5: link failures (wear-and-tear)",
		"mesh", "failed links", "EAR jobs", "SDR jobs")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), fmt.Sprintf("%.0f%%", 100*r.Fraction), r.EARJobs, r.SDRJobs)
	}
	return t
}

// AblationConcurrencyTable renders the concurrency sweep.
func AblationConcurrencyTable(rows []AblationConcurrencyRow) *stats.Table {
	t := stats.NewTable("Ablation A4: concurrent jobs and deadlock recovery (EAR)",
		"mesh", "jobs in flight", "jobs completed", "deadlock reports")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.ConcurrentJobs, r.JobsCompleted, r.DeadlockReports)
	}
	return t
}
