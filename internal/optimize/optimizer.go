package optimize

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// DefaultRestarts is the restart count used when MultiRestart.Restarts is 0.
const DefaultRestarts = 4

// proposalFactor bounds the number of proposed moves per restart at
// Budget*proposalFactor, so a restart whose proposals keep hitting the cache
// (or keep being infeasible) still terminates deterministically.
const proposalFactor = 16

// Problem describes one placement-optimization run.
type Problem struct {
	// Spec is the base scenario: it supplies the platform, the application
	// and — through its mapping fields — the starting placement of restart 0.
	Spec scenario.Spec
	// Objective scores candidates. Required.
	Objective Objective
	// Budget is the number of objective evaluations each restart may spend
	// (cache hits are free). Values below 1 mean 1: evaluate the start only.
	Budget int
	// Seed is the base seed of the search's move streams: every restart, move
	// and random start is an index-addressed function of it.
	Seed uint64
}

// start materialises the base scenario's mapping as the search's starting
// candidate.
func (p *Problem) start() (*Candidate, error) {
	if p.Objective == nil {
		return nil, fmt.Errorf("optimize: problem has no objective")
	}
	s, err := p.Spec.Strategy()
	if err != nil {
		return nil, err
	}
	pMods := s.Run.App.NumModules()
	if pMods > 255 {
		return nil, fmt.Errorf("optimize: %d modules exceed the 255 the candidate encoding supports", pMods)
	}
	m, err := s.Mapper.Map(s.Mesh.Graph, s.Run.App)
	if err != nil {
		return nil, err
	}
	return FromMapping(m, s.Mesh.Graph.NodeCount(), pMods), nil
}

// budget returns the per-restart evaluation budget, at least 1.
func (p *Problem) budget() int {
	if p.Budget < 1 {
		return 1
	}
	return p.Budget
}

// Optimizer is a placement-search strategy. All three implementations —
// HillClimb, Anneal and MultiRestart — are deterministic: the report is a
// pure function of (Problem, strategy parameters), independent of worker
// count and scheduling.
type Optimizer interface {
	// Name identifies the strategy in reports.
	Name() string
	// Optimize runs the search and reports the best placement found.
	Optimize(p Problem) (*Report, error)
}

// searcher is the single-restart search loop shared by MultiRestart:
// HillClimb and Anneal implement it, MultiRestart fans it out.
type searcher interface {
	Optimizer
	// search walks from start, drawing all randomness from the restart's
	// stream, and returns the restart report plus the best candidate.
	search(p *Problem, start *Candidate, stream campaign.Stream, restart int) (RestartReport, *Candidate, error)
}

// Sub-stream channels of one restart's stream. Keeping the channels disjoint
// makes every random decision an index-addressed pure function of
// (Problem.Seed, restart, index).
const (
	chanMoves  = 0 // move k reads words [k*moveWords, (k+1)*moveWords)
	chanAccept = 1 // annealing acceptance draw k reads word k
	chanStart  = 2 // random-start permutation draws
)

// ---------------------------------------------------------------------------
// Greedy hill-climb
// ---------------------------------------------------------------------------

// HillClimb is the greedy strategy: it proposes seed-stream moves and accepts
// every strict improvement, keeping the incumbent otherwise. Simple, fast,
// and the baseline the other strategies are measured against.
type HillClimb struct{}

// Name implements Optimizer.
func (HillClimb) Name() string { return "climb" }

// Optimize implements Optimizer: a single restart from the base scenario's
// own mapping.
func (h HillClimb) Optimize(p Problem) (*Report, error) {
	return runRestarts(h.Name(), h, 1, 1, false, p)
}

// search implements searcher.
func (h HillClimb) search(p *Problem, start *Candidate, stream campaign.Stream, restart int) (RestartReport, *Candidate, error) {
	moves := stream.Sub(chanMoves)
	cache := newEvalCache(p.Objective)
	cur, next := start.Clone(), start.Clone()

	rep := RestartReport{Restart: restart, Start: start.String()}
	curScore, _, err := cache.evaluate(cur)
	if err != nil {
		return rep, nil, err
	}
	rep.StartScore = curScore
	rep.Trace = append(rep.Trace, TracePoint{Evals: cache.misses, Score: curScore})

	budget := p.budget()
	for k := uint64(0); rep.Proposals < budget*proposalFactor && cache.misses < budget; k++ {
		rep.Proposals++
		next.CopyFrom(cur)
		w := k * moveWords
		if !next.applyMove(moves.Word(w), moves.Word(w+1), moves.Word(w+2), moves.Word(w+3)) {
			continue
		}
		score, _, err := cache.evaluate(next)
		if err != nil {
			return rep, nil, err
		}
		if score > curScore {
			cur, next = next, cur
			curScore = score
			rep.Improvements++
			rep.Trace = append(rep.Trace, TracePoint{Evals: cache.misses, Proposals: rep.Proposals, Score: curScore})
		}
	}
	rep.finish(cache, cur.String(), curScore)
	return rep, cur, nil
}

// ---------------------------------------------------------------------------
// Simulated annealing
// ---------------------------------------------------------------------------

// Anneal is simulated annealing with a deterministic geometric cooling
// schedule: proposal k is accepted when it improves the incumbent or with
// probability exp(Δ/T_k), where T_k = T0·α^k and both the temperature ladder
// and the acceptance draws are pure functions of the restart's seed stream.
// The best candidate is tracked separately from the random walk, so the
// reported best is never worse than the start.
type Anneal struct {
	// T0 is the initial temperature in score units. 0 selects a default
	// proportional to the starting score (a tenth of it, at least 1), which
	// keeps the schedule meaningful across objectives of different scales.
	T0 float64
	// Alpha is the per-proposal geometric cooling factor in (0, 1). 0 selects
	// the factor that cools T0 by three decades over the proposal budget.
	Alpha float64
}

// Name implements Optimizer.
func (Anneal) Name() string { return "anneal" }

// Optimize implements Optimizer: a single restart from the base scenario's
// own mapping.
func (a Anneal) Optimize(p Problem) (*Report, error) {
	return runRestarts(a.Name(), a, 1, 1, false, p)
}

// search implements searcher.
func (a Anneal) search(p *Problem, start *Candidate, stream campaign.Stream, restart int) (RestartReport, *Candidate, error) {
	moves, accept := stream.Sub(chanMoves), stream.Sub(chanAccept)
	cache := newEvalCache(p.Objective)
	cur, next, best := start.Clone(), start.Clone(), start.Clone()

	rep := RestartReport{Restart: restart, Start: start.String()}
	curScore, _, err := cache.evaluate(cur)
	if err != nil {
		return rep, nil, err
	}
	bestScore := curScore
	rep.StartScore = curScore
	rep.Trace = append(rep.Trace, TracePoint{Evals: cache.misses, Score: curScore})

	budget := p.budget()
	maxProposals := budget * proposalFactor
	t0 := a.T0
	if t0 <= 0 {
		t0 = math.Max(1, 0.1*math.Abs(curScore))
	}
	alpha := a.Alpha
	if alpha <= 0 || alpha >= 1 {
		// Three decades of cooling across the proposal budget.
		alpha = math.Exp(math.Log(1e-3) / float64(maxProposals))
	}

	temp := t0
	for k := uint64(0); rep.Proposals < maxProposals && cache.misses < budget; k++ {
		rep.Proposals++
		temp *= alpha
		next.CopyFrom(cur)
		w := k * moveWords
		if !next.applyMove(moves.Word(w), moves.Word(w+1), moves.Word(w+2), moves.Word(w+3)) {
			continue
		}
		score, _, err := cache.evaluate(next)
		if err != nil {
			return rep, nil, err
		}
		accepted := score >= curScore
		if !accepted {
			// Uniform draw in [0,1) from the acceptance channel, addressed by
			// the proposal index.
			u := float64(accept.Word(k)>>11) / (1 << 53)
			accepted = u < math.Exp((score-curScore)/temp)
		}
		if accepted {
			cur, next = next, cur
			curScore = score
		}
		if curScore > bestScore {
			best.CopyFrom(cur)
			bestScore = curScore
			rep.Improvements++
			rep.Trace = append(rep.Trace, TracePoint{Evals: cache.misses, Proposals: rep.Proposals, Score: bestScore})
		}
	}
	rep.finish(cache, best.String(), bestScore)
	return rep, best, nil
}

// ---------------------------------------------------------------------------
// Multi-restart
// ---------------------------------------------------------------------------

// MultiRestart fans Restarts independent runs of an inner strategy out over a
// runner.Pool. Restart 0 starts from the base scenario's own mapping (so the
// search can never return a placement worse than the scenario's baseline);
// every later restart starts from a random feasible placement drawn from its
// own seed-stream channel. Results fold in restart order — ties prefer the
// lower restart index — so the chosen placement is byte-identical at every
// worker count.
type MultiRestart struct {
	// Inner is the per-restart strategy: HillClimb or Anneal (nil =
	// HillClimb).
	Inner Optimizer
	// Restarts is the number of independent restarts (0 = DefaultRestarts).
	Restarts int
	// Workers is the number of restarts searched concurrently (0 = one per
	// CPU, 1 = serial). Never changes the result.
	Workers int
	// RandomStarts makes restart 0 start from a random placement too,
	// instead of the base scenario's mapping — the "best of N random
	// placements" baseline of the opt-gap experiment.
	RandomStarts bool
}

// Name implements Optimizer.
func (m MultiRestart) Name() string {
	return fmt.Sprintf("restart(%s)", m.inner().Name())
}

func (m MultiRestart) inner() Optimizer {
	if m.Inner == nil {
		return HillClimb{}
	}
	return m.Inner
}

// Optimize implements Optimizer.
func (m MultiRestart) Optimize(p Problem) (*Report, error) {
	inner, ok := m.inner().(searcher)
	if !ok {
		return nil, fmt.Errorf("optimize: %s cannot be multi-restarted", m.inner().Name())
	}
	restarts := m.Restarts
	if restarts < 1 {
		restarts = DefaultRestarts
	}
	return runRestarts(m.Name(), inner, restarts, m.Workers, m.RandomStarts, p)
}

// runRestarts is the shared execution core: it derives one child stream per
// restart, fans the restarts out over a pool, and folds the reports in
// restart order.
func runRestarts(name string, s searcher, restarts, workers int, randomStarts bool, p Problem) (*Report, error) {
	base, err := p.start()
	if err != nil {
		return nil, err
	}
	root := campaign.Stream{Base: p.Seed}

	type restartOut struct {
		rep  RestartReport
		best *Candidate
	}
	pool := runner.New(runner.WithWorkers(workers))
	outs, err := runner.Map(pool, make([]struct{}, restarts), func(r int, _ struct{}) (restartOut, error) {
		stream := root.Sub(uint64(r))
		start := base
		if r > 0 || randomStarts {
			start = base.Clone()
			start.randomize(stream.Sub(chanStart))
		}
		rep, best, err := s.search(&p, start, stream, r)
		if err != nil {
			return restartOut{}, fmt.Errorf("restart %d: %w", r, err)
		}
		return restartOut{rep, best}, nil
	})
	if err != nil {
		return nil, err
	}

	rpt := &Report{
		Strategy:  name,
		Objective: p.Objective.Name(),
		Budget:    p.budget(),
		Seed:      p.Seed,
		BestScore: math.Inf(-1),
	}
	for _, o := range outs {
		rpt.PerRestart = append(rpt.PerRestart, o.rep)
		rpt.Evals += o.rep.Evals
		rpt.CacheHits += o.rep.CacheHits
		rpt.Proposals += o.rep.Proposals
		// Strictly-greater fold: ties keep the lowest restart index.
		if o.rep.BestScore > rpt.BestScore {
			rpt.BestScore = o.rep.BestScore
			rpt.BestRestart = o.rep.Restart
			rpt.Best = o.best
		}
	}
	rpt.StartScore = rpt.PerRestart[0].StartScore
	return rpt, nil
}
