// Package campaign runs Monte-Carlo replication campaigns over the
// declarative scenarios of internal/scenario: the same scenario is simulated
// many times with per-replicate seeds drawn from a deterministic stream, and
// every sim.Result is folded into streaming stats.Summary aggregates (mean,
// variance, t-based confidence intervals, P50/P90/P99 quantiles). A campaign
// therefore reports *expected* figures of merit with error bars instead of
// the single draw a bare simulation gives — which is what the paper's
// claims about EAR's lifetime and job-count advantage are actually about.
//
// The design invariants, in order of importance:
//
//   - Determinism. Replicate i's seeds are an index-addressed function of
//     the campaign seed (see Stream), and results are folded in replicate
//     order regardless of which worker simulated them, so a campaign's
//     aggregates are byte-identical for every worker count.
//   - O(1) memory. Replicates are simulated in fixed-size batches through
//     runner; only the current batch's results exist at once and every
//     aggregate is streaming, so a 10k-replicate campaign costs no more
//     memory than a batch-sized one.
//   - Zero per-replicate aggregation garbage. Folding a sim.Result into a
//     Result allocates nothing (guarded by a testing.AllocsPerRun test), so
//     aggregation overhead is noise next to the simulation itself.
//
// Campaigns are the layer every stochastic workload plugs into: random
// mapping draws and link-fault patterns today, battery variance and
// transient faults tomorrow — a new stochastic knob is a new seed channel in
// Seeds plus a field in scenario.Spec, with no change to this package's
// execution model.
package campaign

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// batchSize is the number of replicates simulated per runner batch. It
// bounds peak memory (one sim.Result per batch slot) and is deliberately
// independent of the worker count so that batch boundaries — and therefore
// everything downstream — never depend on the machine. The aggregates are
// identical for every batch size because folding happens in global
// replicate order.
const batchSize = 64

// Spec describes one Monte-Carlo campaign: a base scenario plus how many
// times to re-draw it.
type Spec struct {
	// Scenario is the base scenario. Its stochastic knobs (MappingSeed,
	// FailedLinkSeed) are overridden per replicate by the seed stream; all
	// other fields are shared by every replicate.
	Scenario scenario.Spec
	// Replications is the number of independent replicates (must be >= 1).
	Replications int
	// Seed is the campaign-level base seed of the replicate seed stream.
	// Two campaigns with different seeds draw unrelated replicate sequences;
	// the same seed reproduces the campaign exactly.
	Seed uint64
}

// Replicate returns the scenario spec of replicate i: the base scenario with
// its stochastic seeds replaced by the stream's draws for index i. It is a
// pure function, so any single replicate can be reconstructed and re-run in
// isolation (e.g. to debug an outlier draw).
func (sp Spec) Replicate(i int) scenario.Spec {
	seeds := Stream{Base: sp.Seed}.At(i)
	rep := sp.Scenario
	rep.MappingSeed = seeds.Mapping
	rep.FailedLinkSeed = seeds.Faults
	if rep.Faults != "" {
		// Re-seed the runtime fault schedule from the Transient channel, so a
		// chaos campaign draws an independent schedule per replicate. A
		// malformed clause string is left as-is; it fails in Normalized with
		// the proper parse error.
		if fsp, err := faults.ParseSpec(rep.Faults); err == nil {
			fsp.Seed = seeds.Transient
			rep.Faults = fsp.String()
		}
	}
	return rep
}

// Result holds a campaign's streaming aggregates: one stats.Summary per
// reported metric, each folded over every replicate. No per-replicate data
// is retained.
type Result struct {
	// Spec is the campaign that produced this result.
	Spec Spec

	// Jobs aggregates sim.Result.JobsCompleted, the paper's figure of merit.
	Jobs stats.Summary
	// JobsLost aggregates jobs abandoned at node death.
	JobsLost stats.Summary
	// Lifetime aggregates the system lifetime in cycles.
	Lifetime stats.Summary
	// Frames aggregates the TDMA frame count.
	Frames stats.Summary
	// Recomputes aggregates controller routing recomputations.
	Recomputes stats.Summary
	// Deadlocks aggregates deadlock reports.
	Deadlocks stats.Summary
	// DeadNodes aggregates the number of exhausted nodes at death.
	DeadNodes stats.Summary
	// EnergyPJ aggregates the total energy actually consumed.
	EnergyPJ stats.Summary
	// ControlOverhead aggregates the control-exchange overhead fraction.
	ControlOverhead stats.Summary
	// PayloadVerified and PayloadMismatches aggregate the end-to-end AES
	// verification counters of scenarios that carry real payloads. They are
	// all-zero (and omitted from Metrics) when the scenario does not verify.
	PayloadVerified   stats.Summary
	PayloadMismatches stats.Summary
}

// AnyPayloadMismatch reports whether any replicate produced a ciphertext
// mismatch — the campaign form of a single run's hard verification failure.
func (r *Result) AnyPayloadMismatch() bool { return r.PayloadMismatches.Max() > 0 }

// MismatchError returns a descriptive error when any replicate mismatched a
// verified payload, and nil otherwise. The CLIs treat it as a hard failure,
// preserving the single-run verification contract under replication.
func (r *Result) MismatchError() error {
	if !r.AnyPayloadMismatch() {
		return nil
	}
	total := r.PayloadMismatches.Mean() * float64(r.PayloadMismatches.Count())
	return fmt.Errorf("%.0f payload mismatches across %d replicates (max %g in one run)",
		total, r.PayloadMismatches.Count(), r.PayloadMismatches.Max())
}

// observe folds one replicate's outcome into every aggregate. It must not
// allocate: this is the per-replicate hot path on top of the simulation.
func (r *Result) observe(res *sim.Result) {
	r.Jobs.Observe(float64(res.JobsCompleted))
	r.JobsLost.Observe(float64(res.JobsLost))
	r.Lifetime.Observe(float64(res.LifetimeCycles))
	r.Frames.Observe(float64(res.Frames))
	r.Recomputes.Observe(float64(res.RoutingRecomputes))
	r.Deadlocks.Observe(float64(res.DeadlockReports))
	r.DeadNodes.Observe(float64(res.DeadNodes))
	r.EnergyPJ.Observe(res.Energy.TotalConsumedPJ())
	r.ControlOverhead.Observe(res.Energy.ControlOverheadFraction())
	r.PayloadVerified.Observe(float64(res.PayloadJobsVerified))
	r.PayloadMismatches.Observe(float64(res.PayloadMismatches))
}

// Metric pairs a reported metric's display name with its aggregate.
type Metric struct {
	Name    string
	Summary *stats.Summary
}

// Metrics returns the result's aggregates in reporting order. The pointers
// alias the result's own summaries. The payload-verification aggregates
// appear only when some replicate actually verified or mismatched a payload,
// mirroring how a single etsim run reports them.
func (r *Result) Metrics() []Metric {
	metrics := []Metric{
		{"jobs completed", &r.Jobs},
		{"jobs lost", &r.JobsLost},
		{"lifetime [cycles]", &r.Lifetime},
		{"TDMA frames", &r.Frames},
		{"routing recomputations", &r.Recomputes},
		{"deadlock reports", &r.Deadlocks},
		{"dead nodes", &r.DeadNodes},
		{"energy consumed [pJ]", &r.EnergyPJ},
		{"control overhead", &r.ControlOverhead},
	}
	if r.PayloadVerified.Max() > 0 || r.PayloadMismatches.Max() > 0 {
		metrics = append(metrics,
			Metric{"AES payloads verified", &r.PayloadVerified},
			Metric{"AES payload mismatches", &r.PayloadMismatches})
	}
	return metrics
}

// Table renders the campaign as a metric-per-row table with mean ± 95% CI
// and quantile columns — the body of `etcampaign` in both table and CSV
// form.
func (r *Result) Table() *stats.Table {
	title := fmt.Sprintf("Campaign: %s, %d replicates (seed %d)",
		r.Spec.Scenario.Label(), r.Spec.Replications, r.Spec.Seed)
	t := stats.NewTable(title,
		"metric", "mean", "±95% CI", "std dev", "min", "P50", "P90", "P99", "max")
	for _, m := range r.Metrics() {
		s := m.Summary
		t.AddRow(m.Name, s.Mean(), s.CI95(), s.StdDev(),
			s.Min(), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99), s.Max())
	}
	return t
}

// Run executes the campaign: Replications independent replicates of the base
// scenario, seeded by the campaign's stream, simulated in fixed-size batches
// as cells of the caller's pool and folded into a fresh Result in replicate
// order. The aggregates are identical for every pool size.
//
// Errors from any replicate abort the campaign with the lowest failing
// replicate's error (runner's schedule-independent error selection). Once
// ctx is cancelled no new replicate starts and the in-flight ones abort at
// their next scheduling boundary (via sim.Config.Cancel); Run then returns
// the context's error, never a partial aggregate.
func Run(ctx context.Context, pool *runner.Pool, sp Spec) (*Result, error) {
	return run(ctx, pool, sp, batchSize)
}

// run is Run with batches of the given size.
func run(ctx context.Context, pool *runner.Pool, sp Spec, batch int) (*Result, error) {
	if sp.Replications < 1 {
		return nil, fmt.Errorf("campaign %s: replications must be >= 1, got %d",
			sp.Scenario.Label(), sp.Replications)
	}
	// Check replicate 0 up front so configuration errors (bad mesh, unknown
	// algorithm) surface immediately instead of from inside a worker.
	if _, err := sp.Replicate(0).Normalized(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	// simulate runs one replicate, threading the campaign context into the
	// engine's scheduling loop (the background context's nil Done channel
	// leaves the run uncancellable).
	simulate := func(rep scenario.Spec) (sim.Result, error) {
		s, err := rep.Strategy()
		if err != nil {
			return sim.Result{}, err
		}
		s.Run.Cancel = ctx.Done()
		return s.Simulate()
	}

	if batch > sp.Replications {
		batch = sp.Replications
	}

	res := &Result{Spec: sp}
	buf := make([]sim.Result, batch)
	for start := 0; start < sp.Replications; start += batch {
		n := batch
		if rest := sp.Replications - start; rest < n {
			n = rest
		}
		// Simulate the batch in parallel: each cell owns its simulator and
		// writes its result at its batch slot, so the buffer needs no locks.
		err := pool.Run(n, func(j int) error {
			if err := ctx.Err(); err != nil {
				// Cancelled before this replicate started: its error cancels
				// the rest of the batch, so none of them is simulated.
				return err
			}
			out, err := simulate(sp.Replicate(start + j))
			if err != nil {
				return fmt.Errorf("replicate %d: %w", start+j, err)
			}
			if out.Reason == sim.DeathCancelled {
				// A truncated replicate must never be folded: abort the campaign
				// with the context's error so callers cannot mistake a partial
				// aggregate for a real one.
				if err := ctx.Err(); err != nil {
					return err
				}
				return fmt.Errorf("replicate %d: cancelled", start+j)
			}
			buf[j] = out
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", sp.Scenario.Label(), err)
		}
		// Fold serially in replicate order — this is what makes aggregates
		// (including the order-sensitive P² quantiles) independent of worker
		// scheduling.
		for j := 0; j < n; j++ {
			res.observe(&buf[j])
		}
	}
	return res, nil
}
