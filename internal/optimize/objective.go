package optimize

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/app"
	"repro/internal/campaign"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Objective scores a feasible candidate placement; higher is better. An
// Objective must be a pure function of the candidate — the determinism of the
// whole search (and the validity of memoized evaluations) rests on that.
// Evaluate errors abort the search: they signal a broken configuration, not a
// bad placement (infeasible placements are filtered before evaluation).
type Objective interface {
	// Name identifies the objective in reports and CLI flags.
	Name() string
	// Evaluate scores the candidate.
	Evaluate(c *Candidate) (float64, error)
}

// ---------------------------------------------------------------------------
// Analytic: the Theorem-1 surrogate
// ---------------------------------------------------------------------------

// Analytic is the fast placement surrogate derived from the paper's Sec 4
// analysis. For a placement with n_i duplicates of module i, the nodes
// hosting module i can jointly deliver at most B·n_i / H_i(d) jobs, where
// H_i(d) = f_i·E_i + Σ_j t_ij·d_ij·c generalises the Theorem-1 normalized
// energy with the placement's actual communication distances: t_ij counts the
// module i→j hand-offs per job (from the application flow), d_ij is the mean
// Manhattan distance from module-i nodes to their nearest module-j duplicate,
// and c is the one-hop packet energy. The score is the bottleneck
// min_i B·n_i/H_i(d).
//
// At d_ij = 1 and the real-valued optimal duplicate counts this is exactly
// Theorem 1's J*, so the surrogate never exceeds the bound; it charges
// neither relay energy (hops burn intermediate nodes' batteries, which the
// surrogate attributes to the sender) nor control overhead, which is why the
// simulation objective scores lower than the surrogate on the same placement.
//
// Evaluate is allocation-free: the evaluation is O(p²·K²) arithmetic over
// the candidate's dense assignment with no scratch state at all, cheap enough
// that memoizing it is unnecessary (though the search memoizes uniformly).
type Analytic struct {
	pos       []topology.Coord
	p         int
	compPJ    []float64 // compPJ[m] = f_m · E_m, indexed by module (entry 0 unused)
	trans     []float64 // trans[a*(p+1)+b] = hand-offs a→b per job
	commPJ    float64   // one-hop packet energy c
	batteryPJ float64   // per-node battery budget B
}

// NewAnalytic builds the surrogate for a scenario's platform and application.
// Only the spec's topology/application fields matter; its mapping is ignored.
func NewAnalytic(sp scenario.Spec) (*Analytic, error) {
	s, err := sp.Strategy()
	if err != nil {
		return nil, err
	}
	a := s.Run.App
	p := a.NumModules()
	nodes := s.Mesh.Graph.Nodes()
	o := &Analytic{
		pos:       make([]topology.Coord, len(nodes)),
		p:         p,
		compPJ:    make([]float64, p+1),
		trans:     make([]float64, (p+1)*(p+1)),
		commPJ:    analytic.CommunicationEnergyPerOp(a, s.Mesh.SpacingCM()),
		batteryPJ: s.Run.NodeBattery().NominalPJ(),
	}
	for _, n := range nodes {
		o.pos[n.ID] = n.Pos
	}
	for _, m := range a.Modules {
		o.compPJ[m.ID] = float64(m.OpsPerJob) * m.EnergyPerOpPJ
	}
	for i := 0; i+1 < len(a.Flow); i++ {
		from, to := a.Flow[i], a.Flow[i+1]
		if from != to {
			o.trans[int(from)*(p+1)+int(to)]++
		}
	}
	return o, nil
}

// Name implements Objective.
func (o *Analytic) Name() string { return "analytic" }

// Evaluate implements Objective. Infeasible candidates score -Inf.
func (o *Analytic) Evaluate(c *Candidate) (float64, error) {
	if len(c.assign) != len(o.pos) || c.p != o.p {
		return 0, fmt.Errorf("optimize: candidate shape (%d nodes, %d modules) does not match the objective (%d nodes, %d modules)",
			len(c.assign), c.p, len(o.pos), o.p)
	}
	for m := 1; m <= o.p; m++ {
		if c.counts[m] == 0 {
			return math.Inf(-1), nil
		}
	}
	score := math.Inf(1)
	for from := 1; from <= o.p; from++ {
		commPJ := 0.0
		for to := 1; to <= o.p; to++ {
			t := o.trans[from*(o.p+1)+to]
			if t == 0 {
				continue
			}
			// Mean distance from a module-`from` node to its nearest
			// module-`to` duplicate.
			sum, n := 0, 0
			for u, mu := range c.assign {
				if mu != app.ModuleID(from) {
					continue
				}
				best := math.MaxInt
				for v, mv := range c.assign {
					if mv != app.ModuleID(to) {
						continue
					}
					if d := o.pos[u].Manhattan(o.pos[v]); d < best {
						best = d
					}
				}
				sum += best
				n++
			}
			// float64() rounds the product, so arm64 cannot fuse it into an FMA.
			commPJ += float64(t * (float64(sum) / float64(n)) * o.commPJ)
		}
		h := o.compPJ[from] + commPJ
		if jobs := o.batteryPJ * float64(c.counts[from]) / h; jobs < score {
			score = jobs
		}
	}
	return score, nil
}

// ---------------------------------------------------------------------------
// Sim: one deterministic simulation per evaluation
// ---------------------------------------------------------------------------

// Sim scores a placement by materialising the base scenario with the
// candidate as an explicit mapping and running one full et_sim simulation;
// the score is the number of completed jobs. The base scenario's stochastic
// seeds are fixed, so the objective is a pure function of the candidate.
type Sim struct {
	// Base is the scenario whose placement is being optimized; its Mapping
	// and Assignment fields are overridden per candidate.
	Base scenario.Spec
}

// Name implements Objective.
func (Sim) Name() string { return "sim" }

// Evaluate implements Objective.
func (o Sim) Evaluate(c *Candidate) (float64, error) {
	sp := o.Base
	sp.Mapping = scenario.MappingExplicit
	sp.Assignment = c.String()
	res, err := sp.Simulate()
	if err != nil {
		return 0, err
	}
	return float64(res.JobsCompleted), nil
}

// ---------------------------------------------------------------------------
// Campaign: replicated mean for stochastic scenarios
// ---------------------------------------------------------------------------

// Campaign scores a placement by the campaign mean of completed jobs over
// Replications seed-stream replicates — the right objective when the base
// scenario is stochastic beyond its mapping (re-drawn link-fault patterns),
// where a single draw would reward lucky fabric instead of good placement.
// The campaign seed is part of the objective, so evaluations stay pure
// functions of the candidate (common random numbers across candidates: every
// placement faces the same fault draws). Replicates run serially inside the
// evaluation — the search parallelises across restarts, and nesting pools
// would oversubscribe.
type Campaign struct {
	// Base is the scenario whose placement is being optimized.
	Base scenario.Spec
	// Replications is the number of replicates per evaluation (0 = 10).
	Replications int
	// Seed is the campaign base seed shared by every evaluation.
	Seed uint64
}

// serial is the one-worker pool every Campaign evaluation runs its
// replicates on.
var serial = runner.New(runner.WithWorkers(1))

// Name implements Objective.
func (o Campaign) Name() string {
	return fmt.Sprintf("campaign(r=%d)", o.replications())
}

func (o Campaign) replications() int {
	if o.Replications < 1 {
		return 10
	}
	return o.Replications
}

// Evaluate implements Objective: the mean completed-job count.
func (o Campaign) Evaluate(c *Candidate) (float64, error) {
	s, err := o.Summary(c)
	if err != nil {
		return 0, err
	}
	return s.Mean(), nil
}

// Summary runs the same replicated evaluation as Evaluate but returns the
// full streaming aggregate, so callers (etopt's winner report) can quote the
// mean with its 95% confidence interval.
func (o Campaign) Summary(c *Candidate) (stats.Summary, error) {
	sp := o.Base
	sp.Mapping = scenario.MappingExplicit
	sp.Assignment = c.String()
	res, err := campaign.Run(context.TODO(), serial, campaign.Spec{
		Scenario:     sp,
		Replications: o.replications(),
		Seed:         o.Seed,
	})
	if err != nil {
		return stats.Summary{}, err
	}
	return res.Jobs, nil
}
