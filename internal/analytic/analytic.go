// Package analytic implements the theoretical results of Sec 4 of the paper:
// the normalized energy consumption H_i of each module, Theorem 1's upper
// bound J* on the achievable number of completed jobs over all routing
// strategies, and the optimal number of module duplicates n_i*.
//
// The bound assumes the ideal routing strategy RS*: a topology matched to the
// application data flow (every communication act travels the shortest
// possible physical distance), an optimal real-valued mapping, free
// continuation of interrupted operations and zero control overhead. Any
// simulated routing strategy must therefore complete at most J* jobs, a
// property the integration tests verify.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/energy"
)

// Errors returned by bound computations.
var (
	ErrBadBudget     = errors.New("analytic: battery budget must be positive and finite, node budget positive")
	ErrBadCommEnergy = errors.New("analytic: communication energies must be non-negative, one per module")
)

// CommunicationEnergyPerOp returns c_i, the energy per act of communication
// originated by a module, under the ideal assumption that every packet
// travels a single hop of the given physical length. On the homogeneous
// meshes of the paper the value is the same for every module: packet size
// times the per-bit energy of one inter-node link of the woven line.
func CommunicationEnergyPerOp(a *app.Application, hopLengthCM float64) float64 {
	return energy.PacketEnergyPJ(hopLengthCM, a.PacketBits)
}

// UniformCommEnergies returns a per-module slice filled with the same
// communication energy, for the common case of a homogeneous mesh.
func UniformCommEnergies(a *app.Application, perOpPJ float64) []float64 {
	out := make([]float64, a.NumModules())
	for i := range out {
		out[i] = perOpPJ
	}
	return out
}

// NormalizedEnergies returns H_i = f_i * (E_i + c_i) for every module
// (Table 1 and Sec 4). commPerOpPJ must hold one non-negative entry per
// module.
func NormalizedEnergies(a *app.Application, commPerOpPJ []float64) ([]float64, error) {
	if len(commPerOpPJ) != a.NumModules() {
		return nil, fmt.Errorf("%w: got %d entries for %d modules", ErrBadCommEnergy, len(commPerOpPJ), a.NumModules())
	}
	out := make([]float64, a.NumModules())
	for i, m := range a.Modules {
		c := commPerOpPJ[i]
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: module %d has c = %g", ErrBadCommEnergy, m.ID, c)
		}
		out[i] = float64(m.OpsPerJob) * (m.EnergyPerOpPJ + c)
	}
	return out, nil
}

// Bound is the result of evaluating Theorem 1.
type Bound struct {
	// Jobs is J*, the maximum achievable number of completed jobs (Eq 2).
	// It is a real number; the integer number of completable jobs is
	// floor(Jobs).
	Jobs float64
	// OptimalDuplicates holds n_i* for each module (Eq 3). The entries are
	// real numbers summing to the node budget K.
	OptimalDuplicates []float64
	// NormalizedEnergies holds H_i for each module.
	NormalizedEnergies []float64
	// BatteryBudgetPJ and NodeBudget echo the inputs B and K.
	BatteryBudgetPJ float64
	NodeBudget      int
}

// UpperBound evaluates Theorem 1 for the given application, battery budget B
// (initial capacity of each battery, in pJ), node budget K and per-module
// communication energies c_i.
func UpperBound(a *app.Application, batteryBudgetPJ float64, nodeBudget int, commPerOpPJ []float64) (Bound, error) {
	if !(batteryBudgetPJ > 0) || math.IsInf(batteryBudgetPJ, 1) || nodeBudget <= 0 {
		return Bound{}, fmt.Errorf("%w: B = %g, K = %d", ErrBadBudget, batteryBudgetPJ, nodeBudget)
	}
	h, err := NormalizedEnergies(a, commPerOpPJ)
	if err != nil {
		return Bound{}, err
	}
	var sum float64
	for _, hi := range h {
		sum += hi
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return Bound{}, fmt.Errorf("analytic: total normalized energy is not positive and finite (%g)", sum)
	}
	jobs := batteryBudgetPJ * float64(nodeBudget) / sum
	if math.IsInf(jobs, 1) {
		return Bound{}, fmt.Errorf("%w: J* overflows at B = %g, K = %d", ErrBadBudget, batteryBudgetPJ, nodeBudget)
	}
	dups := make([]float64, len(h))
	for i, hi := range h {
		dups[i] = hi / sum * float64(nodeBudget)
	}
	return Bound{
		Jobs:               jobs,
		OptimalDuplicates:  dups,
		NormalizedEnergies: h,
		BatteryBudgetPJ:    batteryBudgetPJ,
		NodeBudget:         nodeBudget,
	}, nil
}

// MeshUpperBound is a convenience wrapper that evaluates Theorem 1 for a
// homogeneous mesh: every communication act is assumed to cross one link of
// hopLengthCM centimetres (the ideal strategy's minimum), which is how the
// paper's Table 2 column J* is obtained. The hop length must be positive
// and finite: a hop of no length would drop the communication term.
func MeshUpperBound(a *app.Application, hopLengthCM float64, batteryBudgetPJ float64, nodeBudget int) (Bound, error) {
	if !(hopLengthCM > 0) || math.IsInf(hopLengthCM, 1) {
		return Bound{}, fmt.Errorf("analytic: hop length must be positive and finite, got %g cm", hopLengthCM)
	}
	c := CommunicationEnergyPerOp(a, hopLengthCM)
	return UpperBound(a, batteryBudgetPJ, nodeBudget, UniformCommEnergies(a, c))
}

// CompletedJobsLimit returns the integer number of whole jobs permitted by
// the bound.
func (b Bound) CompletedJobsLimit() int { return int(math.Floor(b.Jobs)) }

// TotalNormalizedEnergy returns sum_i H_i, the denominator of Eq 2, i.e. the
// minimum total energy required to complete one job under any routing
// strategy.
func (b Bound) TotalNormalizedEnergy() float64 {
	var sum float64
	for _, h := range b.NormalizedEnergies {
		sum += h
	}
	return sum
}

// Achieved expresses a simulated job count as a fraction of the bound, the
// metric reported in the last column of Table 2.
func (b Bound) Achieved(simulatedJobs float64) float64 {
	if b.Jobs == 0 {
		return 0
	}
	return simulatedJobs / b.Jobs
}
