package optimize

import (
	"fmt"
	"hash/fnv"

	"repro/internal/stats"
)

// TracePoint is one improvement event of a restart's search trace: after
// Evals objective evaluations (and Proposals proposed moves), the restart's
// best score reached Score. The first point of every trace is the start
// evaluation.
type TracePoint struct {
	Evals     int
	Proposals int
	Score     float64
}

// RestartReport summarises one restart of the search.
type RestartReport struct {
	// Restart is the restart index (0 starts from the base mapping unless
	// the search uses random starts).
	Restart int
	// Start and StartScore describe the restart's initial placement.
	Start      string
	StartScore float64
	// Best and BestScore describe the best placement the restart found.
	// BestScore >= StartScore always.
	Best      string
	BestScore float64
	// Evals counts objective evaluations (cache misses), CacheHits the
	// memoized re-scores, Proposals all proposed moves and Improvements the
	// accepted best-score improvements.
	Evals, CacheHits, Proposals, Improvements int
	// Trace holds the best-score improvement events in order.
	Trace []TracePoint
}

// finish seals the report with the restart's outcome and cache counters.
func (r *RestartReport) finish(cache *evalCache, best string, bestScore float64) {
	r.Best = best
	r.BestScore = bestScore
	r.Evals = cache.misses
	r.CacheHits = cache.hits
}

// Report is the outcome of one MultiRestart.Optimize run.
type Report struct {
	// Strategy and Objective name what ran.
	Strategy, Objective string
	// Budget is the per-restart evaluation budget; Seed the base seed.
	Budget int
	Seed   uint64
	// Best is the winning placement, BestScore its score and BestRestart the
	// restart that found it (ties resolve to the lowest index).
	Best        *Candidate
	BestScore   float64
	BestRestart int
	// StartScore is restart 0's starting score — the base scenario's own
	// placement when the run does not use random starts.
	StartScore float64
	// PerRestart holds every restart's report in restart order; the totals
	// below sum over them.
	PerRestart                  []RestartReport
	Evals, CacheHits, Proposals int
}

// BestAssignment returns the winning placement in the canonical
// comma-separated form accepted by scenario.Spec.Assignment and
// `etsim -mapping explicit:...`.
func (r *Report) BestAssignment() string { return r.Best.String() }

// WinnerHash returns the FNV-1a hash of the winning assignment — a compact
// fingerprint for smoke tests asserting the search is stable.
func (r *Report) WinnerHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Best.String()))
	return h.Sum64()
}

// Gain returns the winning score as a multiple of the starting score
// (0 when the start scored 0).
func (r *Report) Gain() float64 {
	if r.StartScore == 0 {
		return 0
	}
	return r.BestScore / r.StartScore
}

// SummaryTable renders one row per restart — the body of etopt's search
// summary.
func (r *Report) SummaryTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Search summary: %s over %s, budget %d evals/restart, seed %d",
			r.Strategy, r.Objective, r.Budget, r.Seed),
		"restart", "start score", "best score", "evals", "cache hits", "proposals", "improvements")
	for _, rep := range r.PerRestart {
		t.AddRow(rep.Restart, rep.StartScore, rep.BestScore,
			rep.Evals, rep.CacheHits, rep.Proposals, rep.Improvements)
	}
	return t
}

// TraceTable renders the winning restart's improvement trace.
func (r *Report) TraceTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Search trace (winning restart %d)", r.BestRestart),
		"evals", "proposals", "best score")
	for _, p := range r.PerRestart[r.BestRestart].Trace {
		t.AddRow(p.Evals, p.Proposals, p.Score)
	}
	return t
}

// BestSoFar returns the winning restart's best score after every evaluation
// it spent — the step curve behind etopt's sparkline.
func (r *Report) BestSoFar() []float64 {
	rep := r.PerRestart[r.BestRestart]
	out := make([]float64, 0, rep.Evals)
	trace := rep.Trace
	cur := rep.StartScore
	for e := 1; e <= rep.Evals; e++ {
		for len(trace) > 0 && trace[0].Evals <= e {
			cur = trace[0].Score
			trace = trace[1:]
		}
		out = append(out, cur)
	}
	return out
}
