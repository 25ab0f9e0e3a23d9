package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// paperSweep is what a reproduction user waits for: one operation is one
// pass of etbench's default grid — Fig 2, Fig 7, Table 2, Fig 8 and the
// ablations A1–A5, 140 pool cells at the paper's mesh sizes — through the
// same experiments functions etbench calls, on a pool of `workers` workers.
// The grid is fixed, so the seed is ignored.
type paperSweep struct {
	e     *env
	sizes []int
	// want is the rendered pass every operation must reproduce: the golden
	// etbench output at the paper's sizes, else the first pass's output.
	want string
	// passes holds the runner spans of a traced window, one entry per pass.
	passes []sweepPass
}

type sweepPass struct {
	wall  time.Duration
	spans *trace.Spans
}

func newPaperSweep(e *env, sizes []int) *paperSweep {
	p := &paperSweep{e: e, sizes: sizes}
	if slices.Equal(sizes, experiments.PaperMeshSizes()) {
		p.want = goldenSweep
	}
	return p
}

// setup warms every experiment's code path on the grid's smallest sizes.
func (p *paperSweep) setup() error {
	p.passes = nil
	_, err := renderSweep(p.sizes[:min(2, len(p.sizes))], experiments.WithWorkers(workers))
	return err
}

func (p *paperSweep) measure(d time.Duration, traced bool, w *window) error {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		opt := experiments.WithWorkers(workers)
		var rec *trace.Spans
		if traced {
			rec = &trace.Spans{}
			opt = experiments.Options(opt, experiments.WithSpans(rec))
		}
		t0 := time.Now()
		out, err := renderSweep(p.sizes, opt)
		dt := time.Since(t0)
		w.lat = append(w.lat, dt)
		switch {
		case err != nil:
			w.failed++
			p.e.checks.failf("paper-sweep pass: %v", err)
		case p.want == "":
			p.want = out
		case out != p.want:
			w.failed++
			p.e.checks.failf("paper-sweep pass %d: rendered tables differ from the golden etbench output", len(w.lat))
		}
		if traced {
			p.passes = append(p.passes, sweepPass{wall: dt, spans: rec})
		}
	}
	w.elapsed += time.Since(start)
	return nil
}

// probeSpecs are the Fig 7 EAR cells, run standalone.
func (p *paperSweep) probeSpecs() []scenario.Spec {
	specs := make([]scenario.Spec, len(p.sizes))
	for i, n := range p.sizes {
		specs[i] = scenario.Spec{Mesh: n}
	}
	return specs
}

// layers reports the runner pool from the traced window's cell spans.
func (p *paperSweep) layers(v values) error {
	if len(p.passes) == 0 {
		return fmt.Errorf("no traced sweep pass")
	}
	var busy, capacity time.Duration
	shares := make([]float64, len(p.passes))
	for i, ps := range p.passes {
		var slowest time.Duration
		for _, sp := range ps.spans.Spans() {
			d := time.Duration(sp.DurationNS)
			busy += d
			slowest = max(slowest, d)
		}
		capacity += workers * ps.wall
		shares[i] = slowest.Seconds() / ps.wall.Seconds()
	}
	last := p.passes[len(p.passes)-1]
	v["runner.cells"] = float64(last.spans.Len())
	v["runner.utilization"] = busy.Seconds() / capacity.Seconds()
	v["runner.cell_max_share"] = median(shares)
	return writeTrace(last.spans, filepath.Join(p.e.dir, "traces", "paper-sweep-cells.json"))
}

func (p *paperSweep) close() {}

// renderSweep runs one pass of etbench's default experiments ("all") over
// sizes and renders the tables exactly as etbench prints them.
func renderSweep(sizes []int, opt experiments.Option) (string, error) {
	var b strings.Builder
	emit := func(t *stats.Table) {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	emit(experiments.Fig2Table(experiments.Fig2(20)))
	fig7, err := experiments.Fig7(sizes, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.Fig7Table(fig7))
	table2, err := experiments.Table2(sizes, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.Table2Table(table2))
	controllers := experiments.PaperControllerCounts()
	fig8, err := experiments.Fig8(sizes, controllers, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.Fig8Table(fig8, controllers))
	q, err := experiments.AblationEARWeight(sizes, []float64{1, 1.5, 2, 3, 4}, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.AblationQTable(q))
	mapping, err := experiments.AblationMapping(sizes, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.AblationMappingTable(mapping))
	battery, err := experiments.AblationBattery(sizes, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.AblationBatteryTable(battery))
	concurrency, err := experiments.AblationConcurrency(sizes, []int{1, 2, 3, 4}, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.AblationConcurrencyTable(concurrency))
	links, err := experiments.AblationLinkFailures(sizes, []float64{0, 0.1, 0.2, 0.3}, opt)
	if err != nil {
		return "", err
	}
	emit(experiments.AblationLinkTable(links))
	return b.String(), nil
}
