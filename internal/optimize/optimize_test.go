package optimize

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mapping"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// countingObjective wraps an objective and counts real evaluations, to verify
// the memoizing cache actually prevents re-evaluation.
type countingObjective struct {
	inner Objective
	calls int
}

func (c *countingObjective) Name() string { return c.inner.Name() }
func (c *countingObjective) Evaluate(cand *Candidate) (float64, error) {
	c.calls++
	return c.inner.Evaluate(cand)
}

// parseCandidate rebuilds a candidate from the canonical assignment form —
// a test helper exercising the String round trip (production replay goes
// through mapping.ParseExplicit + Explicit.Map instead).
func parseCandidate(t *testing.T, assignment string, p int) *Candidate {
	t.Helper()
	ex, err := mapping.ParseExplicit(assignment)
	if err != nil {
		t.Fatal(err)
	}
	c := newCandidate(len(ex.Assign), p)
	for n, mod := range ex.Assign {
		if int(mod) > p {
			t.Fatalf("node %d assigned to unknown module %d (application has %d)", n, mod, p)
		}
		c.set(n, mod)
	}
	return c
}

func analyticProblem(t *testing.T, mesh, budget int, seed uint64) Problem {
	t.Helper()
	sp := scenario.Spec{Mesh: mesh}
	obj, err := NewAnalytic(sp)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Spec: sp, Objective: obj, Budget: budget, Seed: seed}
}

func TestCandidateEncodingRoundTrip(t *testing.T) {
	p := analyticProblem(t, 4, 1, 1)
	start, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	if len(start.assign) != 16 || start.p != 3 {
		t.Fatalf("start candidate is %d nodes x %d modules, want 16x3", len(start.assign), start.p)
	}
	// String round-trips through the canonical form, preserving counts.
	back := parseCandidate(t, start.String(), start.p)
	if back.String() != start.String() {
		t.Fatalf("assignment round trip changed: %s -> %s", start.String(), back.String())
	}
	for m := 1; m <= 3; m++ {
		if back.counts[m] != start.counts[m] {
			t.Errorf("module %d count changed in round trip", m)
		}
	}
}

func TestMovesKeepCandidatesFeasible(t *testing.T) {
	p := analyticProblem(t, 4, 1, 1)
	c, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	stream := campaign.Stream{Base: 99}
	for k := uint64(0); k < 5000; k++ {
		w := k * moveWords
		c.applyMove(stream.Word(w), stream.Word(w+1), stream.Word(w+2), stream.Word(w+3))
		// The incrementally maintained counts must agree with the
		// assignment, and no module may lose its last duplicate.
		for m := 1; m <= c.p; m++ {
			if c.counts[m] == 0 {
				t.Fatalf("move %d produced an infeasible candidate %s", k, c)
			}
			n := 0
			for node := 0; node < len(c.assign); node++ {
				if int(c.ModuleAt(node)) == m {
					n++
				}
			}
			if n != c.counts[m] {
				t.Fatalf("after move %d: module %d count = %d, assignment has %d", k, m, c.counts[m], n)
			}
		}
	}
}

func TestRandomizeIsFeasibleAndIndexAddressed(t *testing.T) {
	p := analyticProblem(t, 5, 1, 1)
	base, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	a, b := base.Clone(), base.Clone()
	a.randomize(campaign.Stream{Base: 7})
	b.randomize(campaign.Stream{Base: 7})
	if a.String() != b.String() {
		t.Error("randomize is not a pure function of the stream")
	}
	for m := 1; m <= a.p; m++ {
		if a.counts[m] == 0 {
			t.Errorf("randomized candidate infeasible: %s", a)
		}
	}
	c := base.Clone()
	c.randomize(campaign.Stream{Base: 8})
	if c.String() == a.String() {
		t.Error("different stream bases drew the same placement")
	}
}

func TestRestartsNeverReturnWorseThanTheirStart(t *testing.T) {
	for _, opt := range []MultiRestart{
		{Inner: Climb, Restarts: 6},
		{Inner: Anneal, Restarts: 6},
		{Inner: Anneal, Restarts: 6, RandomStarts: true},
	} {
		rpt, err := opt.Optimize(workers(2), analyticProblem(t, 4, 150, 3))
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		for _, rep := range rpt.PerRestart {
			if rep.BestScore < rep.StartScore {
				t.Errorf("%s restart %d: best %g worse than start %g",
					opt.Name(), rep.Restart, rep.BestScore, rep.StartScore)
			}
		}
		if rpt.BestScore < rpt.PerRestart[0].StartScore && !opt.RandomStarts {
			t.Errorf("%s: overall best %g worse than the base mapping's %g", opt.Name(), rpt.BestScore, rpt.StartScore)
		}
	}
}

func TestOptimizerDeterministicAcrossWorkers(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, inner := range []Rule{Climb, Anneal} {
		var ref *Report
		for _, w := range counts {
			opt := MultiRestart{Inner: inner, Restarts: 5}
			rpt, err := opt.Optimize(workers(w), analyticProblem(t, 4, 200, 1))
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = rpt
				continue
			}
			if rpt.BestAssignment() != ref.BestAssignment() || rpt.BestScore != ref.BestScore ||
				rpt.BestRestart != ref.BestRestart {
				t.Errorf("%s: winner differs at %d workers", inner, w)
			}
			if !reflect.DeepEqual(rpt.PerRestart, ref.PerRestart) {
				t.Errorf("%s: per-restart reports differ at %d workers", inner, w)
			}
		}
	}
}

func TestSimObjectiveDeterministicAcrossWorkers(t *testing.T) {
	sp := scenario.Spec{Mesh: 4}
	var refTable string
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rpt, err := MultiRestart{Inner: Anneal, Restarts: 2}.Optimize(workers(w), Problem{
			Spec:      sp,
			Objective: Sim{Base: sp},
			Budget:    8,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rendered := rpt.SummaryTable().Render() + rpt.TraceTable().Render() + rpt.BestAssignment()
		if refTable == "" {
			refTable = rendered
			continue
		}
		if rendered != refTable {
			t.Errorf("sim-objective report not byte-identical at %d workers", w)
		}
	}
}

func TestSimSearchNeverFallsBehindCheckerboard(t *testing.T) {
	sp := scenario.Spec{Mesh: 4}
	base, err := sp.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	rpt, err := MultiRestart{Restarts: 2}.Optimize(workers(2), Problem{
		Spec:      sp,
		Objective: Sim{Base: sp},
		Budget:    12,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.StartScore != float64(base.JobsCompleted) {
		t.Errorf("restart 0 start score %g, checkerboard simulates %d jobs", rpt.StartScore, base.JobsCompleted)
	}
	if rpt.BestScore < float64(base.JobsCompleted) {
		t.Errorf("optimized placement scores %g, worse than the checkerboard baseline %d", rpt.BestScore, base.JobsCompleted)
	}
	// The winner replays through the scenario layer as an explicit mapping
	// and reproduces its score exactly.
	replay := sp
	replay.Mapping = scenario.MappingExplicit
	replay.Assignment = rpt.BestAssignment()
	res, err := replay.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.JobsCompleted) != rpt.BestScore {
		t.Errorf("replayed winner completes %d jobs, search scored it %g", res.JobsCompleted, rpt.BestScore)
	}
}

func TestCacheMakesRevisitsFree(t *testing.T) {
	// A 2x2 mesh has only 36 feasible placements, so a 100-eval hill-climb
	// must revisit and the cache must absorb every revisit.
	sp := scenario.Spec{Mesh: 2}
	inner, err := NewAnalytic(sp)
	if err != nil {
		t.Fatal(err)
	}
	obj := &countingObjective{inner: inner}
	rpt, err := MultiRestart{Restarts: 1}.Optimize(workers(1), Problem{Spec: sp, Objective: obj, Budget: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := rpt.PerRestart[0]
	if obj.calls != rep.Evals {
		t.Errorf("objective ran %d times, report counts %d evals", obj.calls, rep.Evals)
	}
	if rep.Evals > 36 {
		t.Errorf("%d evaluations exceed the 36 feasible placements of a 2x2 mesh", rep.Evals)
	}
	if rep.CacheHits == 0 {
		t.Error("search never hit the cache despite exhausting the placement space")
	}
	if rep.Proposals <= rep.Evals {
		t.Errorf("proposals (%d) should exceed evaluations (%d) once the space is exhausted", rep.Proposals, rep.Evals)
	}
}

func TestAnalyticSurrogateRespectsTheorem1(t *testing.T) {
	// The surrogate never exceeds J*: min_i B·n_i/H_i(d) <= B·K/ΣH_i because
	// the minimum is below the H-weighted mean and d >= 1 only shrinks it.
	sp := scenario.Spec{Mesh: 4}
	obj, err := NewAnalytic(sp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.UpperBound()
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Spec: sp, Objective: obj, Budget: 1, Seed: 1}
	c, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	for draw := uint64(0); draw < 50; draw++ {
		if draw > 0 {
			c.randomize(campaign.Stream{Base: draw})
		}
		score, err := obj.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		if score > bound.Jobs*(1+1e-9) {
			t.Fatalf("surrogate score %g exceeds the Theorem-1 bound %g for %s", score, bound.Jobs, c)
		}
		if score <= 0 || math.IsInf(score, 0) || math.IsNaN(score) {
			t.Fatalf("surrogate score %g is not a positive finite number", score)
		}
	}
}

func TestHillClimbInnerLoopAllocFree(t *testing.T) {
	// Steady state: the placement space of a 2x2 mesh is exhausted quickly,
	// after which every proposal is a cache hit. The inner loop — copy,
	// move, memoized analytic evaluation — must then allocate nothing.
	sp := scenario.Spec{Mesh: 2}
	obj, err := NewAnalytic(sp)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Spec: sp, Objective: obj, Budget: 1, Seed: 1}
	cur, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	next := cur.Clone()
	cache := newEvalCache(obj)
	moves := campaign.Stream{Base: 42}
	k := uint64(0)
	step := func() {
		w := k * moveWords
		k++
		next.CopyFrom(cur)
		if !next.applyMove(moves.Word(w), moves.Word(w+1), moves.Word(w+2), moves.Word(w+3)) {
			return
		}
		if _, _, err := cache.evaluate(next); err != nil {
			t.Fatal(err)
		}
	}
	// Populate the cache with the whole reachable neighborhood.
	for i := 0; i < 5000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("hill-climb inner loop allocates %.1f times per iteration in steady state", allocs)
	}
}

// workers returns a runner pool of n workers.
func workers(n int) *runner.Pool { return runner.New(runner.WithWorkers(n)) }
