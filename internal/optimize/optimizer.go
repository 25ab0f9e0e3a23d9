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

// Sub-stream channels of one restart's stream. Keeping the channels disjoint
// makes every random decision an index-addressed pure function of
// (Problem.Seed, restart, index).
const (
	chanMoves  = 0 // move k reads words [k*moveWords, (k+1)*moveWords)
	chanAccept = 1 // annealing acceptance draw k reads word k
	chanStart  = 2 // random-start permutation draws
)

// Rule is the acceptance rule of a restart's walk, the only thing that
// tells the search strategies apart.
type Rule int

const (
	// Climb is the greedy hill-climb: it accepts every strict improvement
	// and keeps the incumbent otherwise. Simple, fast, and the baseline the
	// annealer is measured against.
	Climb Rule = iota
	// Anneal is simulated annealing with a deterministic geometric cooling
	// schedule: proposal k is accepted when it does not worsen the incumbent
	// or with probability exp(Δ/T_k), where T_k = T0·α^k. T0 is a tenth of
	// the starting score (at least 1), which keeps the schedule meaningful
	// across objectives of different scales, and α cools T0 by three decades
	// over the proposal budget. The acceptance draws are pure functions of
	// the restart's seed stream.
	Anneal
)

// String names the rule in reports.
func (r Rule) String() string {
	if r == Anneal {
		return "anneal"
	}
	return "climb"
}

// accepts reports whether proposal k, scoring score against the incumbent's
// cur at temperature temp, replaces the incumbent.
func (r Rule) accepts(score, cur, temp float64, draws campaign.Stream, k uint64) bool {
	if r == Climb {
		return score > cur
	}
	if score >= cur {
		return true
	}
	// Uniform draw in [0,1) from the acceptance channel, addressed by the
	// proposal index.
	u := float64(draws.Word(k)>>11) / (1 << 53)
	return u < math.Exp((score-cur)/temp)
}

// MultiRestart is the placement search: Restarts independent walks under one
// acceptance rule, run as cells of the caller's runner.Pool. Restart 0
// starts from the base scenario's own mapping (so the search can never
// return a placement worse than the scenario's baseline); every later
// restart starts from a random feasible placement drawn from its own
// seed-stream channel. Results fold in restart order — ties prefer the lower
// restart index — so the report is a pure function of (Problem, MultiRestart),
// byte-identical at every pool size.
type MultiRestart struct {
	// Inner is the per-restart acceptance rule (the zero value is Climb).
	Inner Rule
	// Restarts is the number of independent restarts (0 = DefaultRestarts).
	Restarts int
	// RandomStarts makes restart 0 start from a random placement too,
	// instead of the base scenario's mapping — the "best of N random
	// placements" baseline of the opt-gap experiment.
	RandomStarts bool
}

// Name identifies the search in reports.
func (m MultiRestart) Name() string {
	return fmt.Sprintf("restart(%s)", m.Inner)
}

// Optimize runs the search, one restart per cell of pool (nil selects
// runner.New()'s defaults), and reports the best placement found.
func (m MultiRestart) Optimize(pool *runner.Pool, p Problem) (*Report, error) {
	restarts := m.Restarts
	if restarts < 1 {
		restarts = DefaultRestarts
	}
	base, err := p.start()
	if err != nil {
		return nil, err
	}
	root := campaign.Stream{Base: p.Seed}

	type restartOut struct {
		rep  RestartReport
		best *Candidate
	}
	outs, err := runner.Map(pool, make([]struct{}, restarts), func(r int, _ struct{}) (restartOut, error) {
		stream := root.Sub(uint64(r))
		start := base
		if r > 0 || m.RandomStarts {
			start = base.Clone()
			start.randomize(stream.Sub(chanStart))
		}
		rep, best, err := m.search(&p, start, stream, r)
		if err != nil {
			return restartOut{}, fmt.Errorf("restart %d: %w", r, err)
		}
		return restartOut{rep, best}, nil
	})
	if err != nil {
		return nil, err
	}

	rpt := &Report{
		Strategy:  m.Name(),
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

// search is one restart: it walks from start, drawing all randomness from
// the restart's stream, and returns the restart report plus the best
// candidate. The best candidate is tracked apart from the walk, so the
// reported best is never worse than the start.
func (m MultiRestart) search(p *Problem, start *Candidate, stream campaign.Stream, restart int) (RestartReport, *Candidate, error) {
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
	// The annealing schedule of Anneal's doc; Climb never reads it.
	temp := math.Max(1, 0.1*math.Abs(curScore))
	alpha := math.Exp(math.Log(1e-3) / float64(maxProposals))
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
		if m.Inner.accepts(score, curScore, temp, accept, k) {
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
