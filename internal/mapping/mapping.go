// Package mapping assigns application modules to network nodes. The mapping
// is one of the four ingredients of a routing strategy in the paper's
// formulation (topology, mapping, control mechanism, routing algorithm).
//
// The paper's own mapping for AES on a mesh is the checkerboard rule of
// Sec 5.2: node (x,y) runs module 1 if (x mod 2)+(y mod 2) = 2, module 2 if
// the sum is 0 and module 3 if the sum is 1, which maps the most
// energy-hungry module (module 3) onto half the nodes as suggested by
// Theorem 1. Additional strategies (Theorem-1-proportional, row-major
// blocks, seeded random) are provided for the ablation studies.
package mapping

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/app"
	"repro/internal/topology"
)

// Unassigned marks a node that runs no application module; such nodes are
// idle computationally but still relay packets.
const Unassigned app.ModuleID = 0

// Mapping is an immutable placement of modules on the nodes of a graph:
// assign[n] is the module of node n (Unassigned for a relay-only node), and
// byModule[m] lists the nodes of module m in ascending ID order.
type Mapping struct {
	assign   []app.ModuleID
	byModule [][]topology.NodeID
}

// newMapping checks assign as a placement of a on k nodes and builds the
// Mapping over it, which takes ownership of the slice. Every strategy returns
// through it, so a Mapping always passes the one placement check.
func newMapping(assign []app.ModuleID, k int, a *app.Application) (*Mapping, error) {
	if err := validate(assign, k, a); err != nil {
		return nil, err
	}
	byModule := make([][]topology.NodeID, a.NumModules()+1)
	for n, mod := range assign {
		if mod != Unassigned {
			byModule[mod] = append(byModule[mod], topology.NodeID(n))
		}
	}
	return &Mapping{assign: assign, byModule: byModule}, nil
}

// validate is the placement check: assign must cover exactly k nodes,
// reference only a's modules, and place every module at least once.
func validate(assign []app.ModuleID, k int, a *app.Application) error {
	if len(assign) != k {
		return fmt.Errorf("mapping: explicit assignment covers %d nodes, graph has %d", len(assign), k)
	}
	placed := make([]bool, a.NumModules()+1)
	for n, mod := range assign {
		if mod == Unassigned {
			continue
		}
		if int(mod) < 1 || int(mod) > a.NumModules() {
			return fmt.Errorf("mapping: node %d assigned to unknown module %d (application has %d)",
				n, mod, a.NumModules())
		}
		placed[mod] = true
	}
	for _, mod := range a.Modules {
		if !placed[mod.ID] {
			return fmt.Errorf("mapping: module %d (%s) has no duplicates", mod.ID, mod.Name)
		}
	}
	return nil
}

// ModuleAt returns the module assigned to a node, or Unassigned for a node
// outside the mapping.
func (m *Mapping) ModuleAt(node topology.NodeID) app.ModuleID {
	if node < 0 || int(node) >= len(m.assign) {
		return Unassigned
	}
	return m.assign[node]
}

// NodesFor returns S_i, the set of nodes running module id, sorted by ID.
func (m *Mapping) NodesFor(id app.ModuleID) []topology.NodeID {
	var nodes []topology.NodeID
	if id > Unassigned && int(id) < len(m.byModule) {
		nodes = m.byModule[id]
	}
	out := make([]topology.NodeID, len(nodes))
	copy(out, nodes)
	return out
}

// Validate checks the mapping as a placement of a on a graph of k nodes, the
// check the strategy ran when it built the mapping: a configuration may pair
// it with another graph or application.
func (m *Mapping) Validate(a *app.Application, k int) error {
	return validate(m.assign, k, a)
}

// Strategy produces a Mapping for an application on a graph.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Map assigns modules to the nodes of g for application a.
	Map(g *topology.Graph, a *app.Application) (*Mapping, error)
}

// Errors returned by the built-in strategies.
var (
	ErrNeedThreeModules = errors.New("mapping: checkerboard mapping requires exactly 3 modules")
	ErrTooFewNodes      = errors.New("mapping: graph has fewer nodes than application modules")
	ErrBadWeights       = errors.New("mapping: proportional weights must be positive, one per module")
)

// Checkerboard is the paper's Sec 5.2 mapping rule for three-module
// applications on coordinate grids.
type Checkerboard struct{}

// Name implements Strategy.
func (Checkerboard) Name() string { return "checkerboard" }

// Map implements Strategy.
func (Checkerboard) Map(g *topology.Graph, a *app.Application) (*Mapping, error) {
	if a.NumModules() != 3 {
		return nil, fmt.Errorf("%w, application has %d", ErrNeedThreeModules, a.NumModules())
	}
	if g.NodeCount() < a.NumModules() {
		return nil, fmt.Errorf("%w: %d nodes for %d modules", ErrTooFewNodes, g.NodeCount(), a.NumModules())
	}
	assign := make([]app.ModuleID, g.NodeCount())
	for _, n := range g.Nodes() {
		sum := mod2(n.Pos.X) + mod2(n.Pos.Y)
		switch sum {
		case 2:
			assign[n.ID] = 1
		case 0:
			assign[n.ID] = 2
		default:
			assign[n.ID] = 3
		}
	}
	return newMapping(assign, g.NodeCount(), a)
}

func mod2(x int) int {
	if x%2 == 0 {
		return 0
	}
	return 1
}

// Proportional maps modules so that the duplicate counts follow Theorem 1:
// n_i is proportional to the supplied per-module weight (normally the
// normalized energy H_i), rounded with the largest-remainder method and
// spread over the grid by error diffusion so duplicates of the same module
// are spatially interleaved rather than clustered.
type Proportional struct {
	// Weights holds one positive weight per module, Weights[i] for module
	// i+1. Typically these are the normalized energies H_i from the analytic
	// package.
	Weights []float64
}

// Name implements Strategy.
func (p Proportional) Name() string { return "theorem1-proportional" }

// Map implements Strategy.
func (p Proportional) Map(g *topology.Graph, a *app.Application) (*Mapping, error) {
	pMods := a.NumModules()
	if len(p.Weights) != pMods {
		return nil, fmt.Errorf("%w: got %d weights for %d modules", ErrBadWeights, len(p.Weights), pMods)
	}
	var total float64
	for i, w := range p.Weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weight %d = %g", ErrBadWeights, i+1, w)
		}
		total += w
	}
	k := g.NodeCount()
	if k < pMods {
		return nil, fmt.Errorf("%w: %d nodes for %d modules", ErrTooFewNodes, k, pMods)
	}
	quotas := largestRemainderQuotas(p.Weights, total, k, pMods)

	// Error diffusion: walk the nodes in row-major order and at each node pick
	// the module with the largest remaining deficit relative to its quota.
	assigned := make([]int, pMods)
	assign := make([]app.ModuleID, k)
	for _, n := range rowMajorNodes(g) {
		best := -1
		bestDeficit := math.Inf(-1)
		for i := 0; i < pMods; i++ {
			if assigned[i] >= quotas[i] {
				continue
			}
			deficit := float64(quotas[i]-assigned[i]) / float64(quotas[i])
			if deficit > bestDeficit {
				bestDeficit = deficit
				best = i
			}
		}
		if best < 0 {
			break
		}
		assign[n.ID] = app.ModuleID(best + 1)
		assigned[best]++
	}
	return newMapping(assign, k, a)
}

// rowMajorNodes returns g's nodes in row-major order: by row (Y), then by
// column (X).
func rowMajorNodes(g *topology.Graph) []topology.Node {
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Pos.Y != nodes[j].Pos.Y {
			return nodes[i].Pos.Y < nodes[j].Pos.Y
		}
		return nodes[i].Pos.X < nodes[j].Pos.X
	})
	return nodes
}

// largestRemainderQuotas apportions k nodes to p modules proportionally to
// the weights, guaranteeing at least one node per module.
func largestRemainderQuotas(weights []float64, total float64, k, p int) []int {
	quotas := make([]int, p)
	remainders := make([]float64, p)
	used := 0
	for i, w := range weights {
		// float64() rounds the product, so arm64 cannot fuse it into an FMA.
		exact := float64(w / total * float64(k))
		quotas[i] = int(math.Floor(exact))
		remainders[i] = exact - float64(quotas[i])
		used += quotas[i]
	}
	// Distribute the leftover nodes by descending remainder.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return remainders[order[a]] > remainders[order[b]] })
	for leftover := k - used; leftover > 0; leftover-- {
		quotas[order[(k-used-leftover)%p]]++
	}
	// Guarantee one duplicate per module by stealing from the largest quota.
	for i := range quotas {
		for quotas[i] == 0 {
			maxIdx := 0
			for j := range quotas {
				if quotas[j] > quotas[maxIdx] {
					maxIdx = j
				}
			}
			if quotas[maxIdx] <= 1 {
				break
			}
			quotas[maxIdx]--
			quotas[i]++
		}
	}
	return quotas
}

// RowMajor assigns contiguous row-major blocks of nodes to modules with block
// sizes proportional to the operation counts f_i. It deliberately clusters
// duplicates and serves as a weak mapping baseline in the ablation studies.
type RowMajor struct{}

// Name implements Strategy.
func (RowMajor) Name() string { return "row-major-blocks" }

// Map implements Strategy.
func (RowMajor) Map(g *topology.Graph, a *app.Application) (*Mapping, error) {
	pMods := a.NumModules()
	k := g.NodeCount()
	if k < pMods {
		return nil, fmt.Errorf("%w: %d nodes for %d modules", ErrTooFewNodes, k, pMods)
	}
	weights := make([]float64, pMods)
	var total float64
	for i, m := range a.Modules {
		weights[i] = float64(m.OpsPerJob)
		total += weights[i]
	}
	quotas := largestRemainderQuotas(weights, total, k, pMods)
	nodes := rowMajorNodes(g)
	assign := make([]app.ModuleID, k)
	idx := 0
	for modIdx, q := range quotas {
		for c := 0; c < q && idx < len(nodes); c++ {
			assign[nodes[idx].ID] = app.ModuleID(modIdx + 1)
			idx++
		}
	}
	return newMapping(assign, k, a)
}

// Explicit is a dense, assignment-backed strategy: Assign[n] names the module
// of node n (Unassigned for relay-only nodes). It is how a concrete placement
// — typically one discovered by the internal/optimize search — is expressed
// as data, saved in a scenario.Spec and replayed exactly. The String/
// ParseExplicit pair round-trips the assignment through the comma-separated
// text form used by `scenario.Spec.Assignment` and `etsim
// -mapping explicit:<assignment>`.
type Explicit struct {
	// Assign holds one module per node, indexed by NodeID.
	Assign []app.ModuleID
}

// Name implements Strategy.
func (Explicit) Name() string { return "explicit" }

// String renders the assignment in the canonical text form: the module of
// every node in NodeID order, comma-separated ("3,1,2,..."). ParseExplicit
// inverts it exactly.
func (e Explicit) String() string {
	var b []byte
	for i, m := range e.Assign {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(m), 10)
	}
	return string(b)
}

// ParseExplicit parses the canonical comma-separated assignment form produced
// by Explicit.String (and by `etopt -emit-spec`).
func ParseExplicit(s string) (Explicit, error) {
	if s == "" {
		return Explicit{}, fmt.Errorf("mapping: empty explicit assignment")
	}
	fields := strings.Split(s, ",")
	e := Explicit{Assign: make([]app.ModuleID, len(fields))}
	for i, field := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || v < 0 {
			return Explicit{}, fmt.Errorf("mapping: explicit assignment entry %q at node %d is not a module number", field, i)
		}
		e.Assign[i] = app.ModuleID(v)
	}
	return e, nil
}

// Validate checks the assignment as a placement of a on a platform of k
// nodes: it must cover exactly the k nodes, reference only the application's
// modules, and place every module at least once. It is the check every
// strategy's Mapping passes, which reads nothing of the graph but its node
// count.
func (e Explicit) Validate(k int, a *app.Application) error {
	return validate(e.Assign, k, a)
}

// Map implements Strategy, placing the modules Validate admits.
func (e Explicit) Map(g *topology.Graph, a *app.Application) (*Mapping, error) {
	return newMapping(append([]app.ModuleID(nil), e.Assign...), g.NodeCount(), a)
}

// Random assigns modules uniformly at random (with every module guaranteed at
// least one duplicate) using a deterministic linear-congruential sequence
// seeded by Seed, so experiments are reproducible without pulling in
// math/rand.
type Random struct {
	Seed uint64
}

// Name implements Strategy.
func (r Random) Name() string { return fmt.Sprintf("random(seed=%d)", r.Seed) }

// Map implements Strategy.
func (r Random) Map(g *topology.Graph, a *app.Application) (*Mapping, error) {
	pMods := a.NumModules()
	k := g.NodeCount()
	if k < pMods {
		return nil, fmt.Errorf("%w: %d nodes for %d modules", ErrTooFewNodes, k, pMods)
	}
	state := r.Seed*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	assign := make([]app.ModuleID, k)
	// Guarantee one duplicate of each module on distinct random nodes first.
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for modIdx := 0; modIdx < pMods; modIdx++ {
		assign[perm[modIdx]] = app.ModuleID(modIdx + 1)
	}
	for _, n := range perm[pMods:] {
		assign[n] = app.ModuleID(next(pMods) + 1)
	}
	return newMapping(assign, k, a)
}
