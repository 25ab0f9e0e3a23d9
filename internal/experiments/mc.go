package experiments

// The Monte-Carlo variants of the paper sweeps: where Fig 7 and Fig 8 report
// one deterministic run per cell, Fig7MC and Fig8MC replicate each cell as a
// campaign over the stochastic knob the paper leaves unexplored — the module
// placement — and report mean ± 95% confidence interval instead of a single
// draw. The EAR and SDR campaigns of a cell share one seed stream, so
// replicate i places modules identically under both algorithms (common
// random numbers): the EAR/SDR gap per replicate is a paired difference,
// which keeps the comparison's variance far below that of independent draws.
//
// Parallelism lives at the replicate level: cells run in sequence and each
// cell's campaign runs its replicates as cells of the sweep's pool —
// replicates outnumber cells by an order of magnitude, so this is where the
// parallelism is. Campaign aggregates are worker-independent by
// construction, so these sweeps inherit the determinism guarantee of the
// rest of the package.

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Fig7MCRow is one mesh size of the replicated EAR-vs-SDR comparison: the
// campaign aggregates of both algorithms' completed-job counts over the same
// random module placements.
type Fig7MCRow struct {
	Mesh         int
	Replications int
	EARJobs      stats.Summary
	SDRJobs      stats.Summary
}

// MeanGain returns the ratio of mean completed jobs, EAR over SDR.
func (r Fig7MCRow) MeanGain() float64 {
	if r.SDRJobs.Mean() == 0 {
		return 0
	}
	return r.EARJobs.Mean() / r.SDRJobs.Mean()
}

// Fig7MC is the Monte-Carlo Fig 7: for every mesh size it runs paired EAR
// and SDR campaigns over randomly drawn module placements (replications
// draws from the seed stream at the given base seed) and reports the
// aggregate job counts with error bars.
func Fig7MC(sizes []int, replications int, seed uint64, opts ...Option) ([]Fig7MCRow, error) {
	pool := newPool(opts)
	rows := make([]Fig7MCRow, 0, len(sizes))
	for _, n := range sizes {
		ear, err := campaign.Run(context.TODO(), pool, campaign.Spec{
			Scenario:     scenario.Spec{Mesh: n, Mapping: scenario.MappingRandom},
			Replications: replications,
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		sdr, err := campaign.Run(context.TODO(), pool, campaign.Spec{
			Scenario: scenario.Spec{
				Mesh: n, Algorithm: scenario.AlgorithmSDR, Mapping: scenario.MappingRandom,
			},
			Replications: replications,
			Seed:         seed, // same stream: paired placements with the EAR campaign
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7MCRow{
			Mesh: n, Replications: replications,
			EARJobs: ear.Jobs, SDRJobs: sdr.Jobs,
		})
	}
	return rows, nil
}

// Fig7MCTable renders the replicated comparison with mean ± CI columns.
func Fig7MCTable(rows []Fig7MCRow) *stats.Table {
	t := stats.NewTable("Fig 7 (Monte-Carlo): completed jobs over random placements, mean ±95% CI",
		"mesh", "replicates", "EAR jobs", "SDR jobs", "EAR/SDR (means)")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Replications,
			fmt.Sprintf("%.1f ±%.1f", r.EARJobs.Mean(), r.EARJobs.CI95()),
			fmt.Sprintf("%.1f ±%.1f", r.SDRJobs.Mean(), r.SDRJobs.CI95()),
			fmt.Sprintf("%.1fx", r.MeanGain()))
	}
	return t
}

// Fig7MCChart renders the replicated comparison as an ASCII chart whose bars
// carry 95%-CI error bars.
func Fig7MCChart(rows []Fig7MCRow) *stats.Chart {
	c := stats.NewChart("Fig 7 (Monte-Carlo): # of jobs completed over random placements", "mesh", "# of jobs")
	ear := c.AddSeries("EAR")
	sdr := c.AddSeries("SDR")
	for _, r := range rows {
		ear.AddErr(float64(r.Mesh), r.EARJobs.Mean(), r.EARJobs.CI95())
		sdr.AddErr(float64(r.Mesh), r.SDRJobs.Mean(), r.SDRJobs.CI95())
	}
	return c
}

// Fig8MCRow is one (mesh, controller count) cell of the replicated
// controller study.
type Fig8MCRow struct {
	Mesh         int
	Controllers  int
	Replications int
	Jobs         stats.Summary
}

// Fig8MC is the Monte-Carlo Fig 8: every (mesh, controller count) cell is a
// campaign over random module placements with battery-powered controllers,
// reporting completed jobs with error bars. All cells draw from the same
// base seed, so each replicate index places modules identically across the
// whole grid.
func Fig8MC(sizes, controllerCounts []int, replications int, seed uint64, opts ...Option) ([]Fig8MCRow, error) {
	pool := newPool(opts)
	cells := runner.Grid(sizes, controllerCounts)
	rows := make([]Fig8MCRow, 0, len(cells))
	for _, cell := range cells {
		n, ctrl := cell.A, cell.B
		res, err := campaign.Run(context.TODO(), pool, campaign.Spec{
			Scenario: scenario.Spec{
				Mesh: n, Controllers: ctrl, FiniteControllers: true,
				Mapping: scenario.MappingRandom,
			},
			Replications: replications,
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8MCRow{Mesh: n, Controllers: ctrl, Replications: replications, Jobs: res.Jobs})
	}
	return rows, nil
}

// Fig8MCTable renders the replicated controller study, one row per cell.
func Fig8MCTable(rows []Fig8MCRow) *stats.Table {
	t := stats.NewTable("Fig 8 (Monte-Carlo): jobs vs controllers over random placements, mean ±95% CI",
		"mesh", "controllers", "replicates", "jobs (mean ±CI)", "P50", "P90")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Controllers, r.Replications,
			fmt.Sprintf("%.1f ±%.1f", r.Jobs.Mean(), r.Jobs.CI95()),
			r.Jobs.Quantile(0.5), r.Jobs.Quantile(0.9))
	}
	return t
}

// Fig8MCChart renders the replicated controller sweep with one error-barred
// series per controller count.
func Fig8MCChart(rows []Fig8MCRow, controllerCounts []int) *stats.Chart {
	c := stats.NewChart("Fig 8 (Monte-Carlo): effect of controllers, mean ±95% CI", "mesh", "# of jobs")
	series := map[int]*stats.Series{}
	for _, count := range controllerCounts {
		series[count] = c.AddSeries(fmt.Sprintf("EAR, %d controllers", count))
	}
	for _, r := range rows {
		if s, ok := series[r.Controllers]; ok {
			s.AddErr(float64(r.Mesh), r.Jobs.Mean(), r.Jobs.CI95())
		}
	}
	return c
}
