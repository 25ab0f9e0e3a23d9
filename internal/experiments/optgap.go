package experiments

// The placement-search experiment: how much of the gap between the paper's
// fixed checkerboard mapping and the Theorem-1 bound J* can a searched
// placement close? The paper uses J* purely as an analytical yardstick
// (Table 2); OptGap treats the placement as a decision variable and compares
// three placements per (mesh, algorithm) cell — the checkerboard, the best
// of N random placements, and a multi-restart hill-climb — all scored by the
// deterministic simulation, against J*.
//
// Like the Monte-Carlo sweeps, cells run in sequence and each cell's search
// runs its restarts as cells of the sweep's pool: restarts outnumber
// cells and each restart costs Budget simulations, so that is where the
// parallelism is. The optimizer folds restart results in input order, so the
// sweep inherits the package's determinism guarantee.

import (
	"fmt"

	"repro/internal/optimize"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// OptGapRow is one (mesh, algorithm) cell of the placement comparison. The
// *Frac columns express completed jobs as a fraction of J* (Table 2's last
// column, extended to searched placements).
type OptGapRow struct {
	Mesh      int
	Algorithm string
	// Bound is J*, the Theorem-1 upper bound for the cell's platform.
	Bound float64
	// CheckerboardJobs is the paper's fixed mapping (the scenario default).
	CheckerboardJobs int
	// RandomBestJobs is the best of the search's restart count of random
	// placements — what placement luck alone buys.
	RandomBestJobs int
	// OptimizedJobs is the multi-restart hill-climb winner.
	OptimizedJobs int
	// OptimizedAssignment is the winning placement in the explicit-mapping
	// form, so any row can be replayed with `etsim -mapping explicit:...`.
	OptimizedAssignment string
	// Evals counts the simulations the search spent (cache hits excluded).
	Evals int
}

// CheckerboardFrac is the checkerboard placement's achieved fraction of J*.
func (r OptGapRow) CheckerboardFrac() float64 { return float64(r.CheckerboardJobs) / r.Bound }

// RandomBestFrac is the random-best placement's achieved fraction of J*.
func (r OptGapRow) RandomBestFrac() float64 { return float64(r.RandomBestJobs) / r.Bound }

// OptimizedFrac is the optimized placement's achieved fraction of J*.
func (r OptGapRow) OptimizedFrac() float64 { return float64(r.OptimizedJobs) / r.Bound }

// OptGap runs the placement comparison for every mesh size under both EAR
// and SDR. budget is the simulation budget per restart, restarts the number
// of independent searches per cell (restart 0 starts from the checkerboard,
// so the optimized column can never fall below it), and seed drives every
// random draw. Both algorithms share the seed, so their random-best and
// restart placements are paired (common random numbers), exactly as in the
// Monte-Carlo sweeps.
func OptGap(sizes []int, budget, restarts int, seed uint64, opts ...Option) ([]OptGapRow, error) {
	pool := newPool(opts)
	rows := make([]OptGapRow, 0, 2*len(sizes))
	for _, n := range sizes {
		for _, alg := range []string{scenario.AlgorithmEAR, scenario.AlgorithmSDR} {
			sp := scenario.Spec{Mesh: n}
			if alg != scenario.AlgorithmEAR {
				sp.Algorithm = alg
			}
			strategy, err := sp.Strategy()
			if err != nil {
				return nil, err
			}
			bound, err := strategy.UpperBound()
			if err != nil {
				return nil, err
			}
			problem := optimize.Problem{
				Spec:      sp,
				Objective: optimize.Sim{Base: sp},
				Budget:    budget,
				Seed:      seed,
			}
			// Random-best: evaluate `restarts` random placements (budget 1 =
			// score the start only) — the placement-luck baseline the
			// random-mapping-sweep campaigns sample.
			randomProblem := problem
			randomProblem.Budget = 1
			randomBest, err := optimize.MultiRestart{
				Restarts: restarts, RandomStarts: true,
			}.Optimize(pool, randomProblem)
			if err != nil {
				return nil, fmt.Errorf("opt-gap %s %dx%d random-best: %w", alg, n, n, err)
			}
			optimized, err := optimize.MultiRestart{Restarts: restarts}.Optimize(pool, problem)
			if err != nil {
				return nil, fmt.Errorf("opt-gap %s %dx%d search: %w", alg, n, n, err)
			}
			// Restart 0 of the search starts from the scenario's own
			// (checkerboard) mapping and scores it with the same sim
			// objective, so its start score IS the baseline — no separate
			// simulation needed.
			rows = append(rows, OptGapRow{
				Mesh:                n,
				Algorithm:           alg,
				Bound:               bound.Jobs,
				CheckerboardJobs:    int(optimized.PerRestart[0].StartScore),
				RandomBestJobs:      int(randomBest.BestScore),
				OptimizedJobs:       int(optimized.BestScore),
				OptimizedAssignment: optimized.BestAssignment(),
				Evals:               randomBest.Evals + optimized.Evals,
			})
		}
	}
	return rows, nil
}

// OptGapTable renders the comparison with achieved-fraction columns.
func OptGapTable(rows []OptGapRow) *stats.Table {
	t := stats.NewTable("Placement search: checkerboard vs random-best vs optimized, against the Theorem-1 bound J*",
		"mesh", "algorithm", "J*", "checkerboard", "random best", "optimized", "checker/J*", "rand/J*", "opt/J*", "sims")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Algorithm,
			fmt.Sprintf("%.2f", r.Bound),
			r.CheckerboardJobs, r.RandomBestJobs, r.OptimizedJobs,
			fmt.Sprintf("%.1f%%", 100*r.CheckerboardFrac()),
			fmt.Sprintf("%.1f%%", 100*r.RandomBestFrac()),
			fmt.Sprintf("%.1f%%", 100*r.OptimizedFrac()),
			r.Evals)
	}
	return t
}

// OptGapChart renders the comparison as grouped bars per mesh size: three
// placements per algorithm plus the (algorithm-independent) J* ceiling.
func OptGapChart(rows []OptGapRow) *stats.Chart {
	c := stats.NewChart("Placement search: jobs completed vs the Theorem-1 bound", "mesh", "# of jobs")
	series := map[string]*stats.Series{}
	add := func(label string, x, y float64) {
		if series[label] == nil {
			series[label] = c.AddSeries(label)
		}
		series[label].Add(x, y)
	}
	for _, r := range rows {
		x := float64(r.Mesh)
		add(r.Algorithm+" checkerboard", x, float64(r.CheckerboardJobs))
		add(r.Algorithm+" random best", x, float64(r.RandomBestJobs))
		add(r.Algorithm+" optimized", x, float64(r.OptimizedJobs))
		if r.Algorithm == scenario.AlgorithmEAR {
			add("J*", x, r.Bound)
		}
	}
	return c
}
