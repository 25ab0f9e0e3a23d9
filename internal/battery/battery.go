// Package battery implements the energy-storage models attached to every
// node (and optionally every controller) of the e-textile platform.
//
// Two models are provided, matching Sec 5.1.3 and Sec 7.2 of the paper:
//
//   - ThinFilm: a Li-free thin-film battery represented by its discharge
//     voltage profile (Fig 2) combined with a discrete-time two-well model in
//     the spirit of Benini et al., which captures the rate-capacity effect
//     (a heavily loaded battery reaches the 3.0 V cutoff early, wasting the
//     remaining stored energy) and charge recovery during idle periods.
//   - Ideal: a battery with constant output voltage and 100 % efficiency
//     until complete depletion, used for the comparison against the
//     analytical upper bound in Table 2.
//
// All energies are picojoules; the paper scales the nominal thin-film
// capacity down to 60000 pJ to keep simulations short, and so do we.
package battery

import (
	"errors"
	"fmt"
	"math"
)

// DefaultNominalPJ is the scaled-down nominal battery capacity used by the
// paper (Sec 5.1.3).
const DefaultNominalPJ = 60000

// DefaultCutoffVoltage is the output voltage below which a node is declared
// dead and the remaining stored energy is wasted (Sec 5.1.3).
const DefaultCutoffVoltage = 3.0

// The thin-film two-well calibration used throughout the paper reproduction:
// a rate-capacity behaviour strong enough to reproduce the 5-15x EAR/SDR gap
// of Fig 7 (a continuously hammered battery delivers only a small fraction
// of its charge before cutoff, while a duty-cycled battery delivers nearly
// all of it).
const (
	// ThinFilmAvailableFraction is the share of the nominal charge held in
	// the "available" well of the two-well discrete-time model. Only the
	// available well can deliver energy instantaneously; the rest diffuses
	// over from the bound well during idle periods.
	ThinFilmAvailableFraction float64 = 0.30
	// ThinFilmRecoveryPerCycle is the fraction of the well-height difference
	// that diffuses from the bound to the available well per clock cycle.
	// Larger values recover faster (weaker rate-capacity effect).
	ThinFilmRecoveryPerCycle float64 = 8e-5
)

// The capacities of a thin-film battery's two wells, in pJ.
const (
	thinFilmNominalPJ float64 = DefaultNominalPJ
	capAvailable              = ThinFilmAvailableFraction * thinFilmNominalPJ
	capBound                  = (1 - ThinFilmAvailableFraction) * thinFilmNominalPJ
)

// ErrDead is returned by Draw when the battery can no longer supply energy.
var ErrDead = errors.New("battery: dead")

// Battery is the interface et_sim uses to account for node energy. Draw
// removes energy instantaneously (one act of computation or communication);
// Rest advances time so that models with charge recovery can rebalance.
type Battery interface {
	// Draw removes amountPJ picojoules from the battery. It returns ErrDead
	// if the battery is already dead or becomes unable to deliver the full
	// amount; in that case the battery is dead afterwards and the fraction
	// actually delivered is unspecified (the node browns out mid-operation).
	Draw(amountPJ float64) error
	// Rest advances the battery's internal clock by the given number of
	// cycles during which no energy is drawn.
	Rest(cycles int64)
	// RemainingPJ returns the total energy still stored in the battery,
	// whether or not it can actually be delivered before cutoff.
	RemainingPJ() float64
	// NominalPJ returns the initial (nominal) capacity.
	NominalPJ() float64
	// DeliveredPJ returns the total energy drawn so far.
	DeliveredPJ() float64
	// LevelFraction is the battery's own estimate of its remaining usable
	// charge in [0,1], as a node would derive it from its terminal voltage.
	// This is the quantity reported to the central controller and used by
	// EAR; for models with a rate-capacity effect it reflects the depressed
	// voltage of a heavily loaded battery, not just the stored charge.
	LevelFraction() float64
	// Dead reports whether the battery has reached its cutoff condition.
	Dead() bool
}

// Level quantizes a battery's reported level fraction into one of levels
// discrete values 0..levels-1, as reported by a node during its TDMA upload
// slot. A dead battery always reports level 0 and a full battery levels-1.
func Level(b Battery, levels int) int {
	if levels <= 1 {
		return 0
	}
	if b.Dead() {
		return 0
	}
	frac := b.LevelFraction()
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return levels - 1
	}
	l := int(frac * float64(levels))
	if l > levels-1 {
		l = levels - 1
	}
	return l
}

// Ideal is the ideal battery model of Sec 7.2: constant voltage and 100 %
// efficiency until the stored energy is exhausted.
type Ideal struct {
	nominal   float64
	remaining float64
}

// NewIdeal returns an ideal battery with the given nominal capacity in
// picojoules.
func NewIdeal(nominalPJ float64) (*Ideal, error) {
	if nominalPJ <= 0 {
		return nil, fmt.Errorf("battery: nominal capacity must be positive, got %g", nominalPJ)
	}
	return &Ideal{nominal: nominalPJ, remaining: nominalPJ}, nil
}

// MustIdeal is NewIdeal with a panic on invalid capacity, for tests and
// statically-correct construction code.
func MustIdeal(nominalPJ float64) *Ideal {
	b, err := NewIdeal(nominalPJ)
	if err != nil {
		panic(err)
	}
	return b
}

// Draw implements Battery.
func (b *Ideal) Draw(amountPJ float64) error {
	if amountPJ < 0 {
		return fmt.Errorf("battery: negative draw %g pJ", amountPJ)
	}
	if b.Dead() {
		return ErrDead
	}
	if amountPJ > b.remaining {
		b.remaining = 0
		return ErrDead
	}
	b.remaining -= amountPJ
	return nil
}

// Rest implements Battery; an ideal battery has no time-dependent behaviour.
func (b *Ideal) Rest(cycles int64) {}

// RemainingPJ implements Battery.
func (b *Ideal) RemainingPJ() float64 { return b.remaining }

// NominalPJ implements Battery.
func (b *Ideal) NominalPJ() float64 { return b.nominal }

// DeliveredPJ implements Battery.
func (b *Ideal) DeliveredPJ() float64 { return b.nominal - b.remaining }

// LevelFraction implements Battery: with a constant-voltage ideal source the
// best available estimate is the exact remaining charge fraction.
func (b *Ideal) LevelFraction() float64 { return b.remaining / b.nominal }

// Dead implements Battery. An ideal battery is dead only when (essentially)
// all of its energy has been delivered.
func (b *Ideal) Dead() bool { return b.remaining <= 1e-9 }

// DischargePoint is one (depth-of-discharge, voltage) sample of a discharge
// voltage profile. DepthOfDischarge is in [0,1].
type DischargePoint struct {
	DepthOfDischarge float64
	Voltage          float64
}

// DischargeProfile is a piecewise-linear discharge voltage curve.
type DischargeProfile []DischargePoint

// LiFreeThinFilmProfile is a digitisation of the Li-free thin-film battery
// discharge curve shown in Fig 2 of the paper (after Neudecker et al.): a
// plateau slightly above 4 V for most of the discharge followed by a sharp
// knee towards the 3.0 V cutoff. It spans depth of discharge 0..1 with
// strictly increasing depths and non-increasing voltage.
func LiFreeThinFilmProfile() DischargeProfile {
	return DischargeProfile{
		{0.00, 4.18},
		{0.05, 4.10},
		{0.10, 4.06},
		{0.20, 4.00},
		{0.30, 3.95},
		{0.40, 3.90},
		{0.50, 3.85},
		{0.60, 3.79},
		{0.70, 3.72},
		{0.80, 3.62},
		{0.90, 3.45},
		{0.95, 3.28},
		{0.98, 3.10},
		{1.00, 2.85},
	}
}

// liFreeThinFilm is the discharge curve every thin-film battery follows.
var liFreeThinFilm = LiFreeThinFilmProfile()

// VoltageAt returns the interpolated voltage at the given depth of discharge,
// clamped to [0,1].
func (p DischargeProfile) VoltageAt(depth float64) float64 {
	if len(p) == 0 {
		return 0
	}
	if depth <= p[0].DepthOfDischarge {
		return p[0].Voltage
	}
	if depth >= p[len(p)-1].DepthOfDischarge {
		return p[len(p)-1].Voltage
	}
	for i := 1; i < len(p); i++ {
		if depth <= p[i].DepthOfDischarge {
			a, b := p[i-1], p[i]
			frac := (depth - a.DepthOfDischarge) / (b.DepthOfDischarge - a.DepthOfDischarge)
			// float64() rounds the product, so arm64 cannot fuse it into an FMA.
			return a.Voltage + float64(frac*(b.Voltage-a.Voltage))
		}
	}
	return p[len(p)-1].Voltage
}

// ThinFilm is the discrete-time thin-film battery model: DefaultNominalPJ of
// nominal capacity split into two wells (ThinFilmAvailableFraction,
// ThinFilmRecoveryPerCycle), the Fig 2 discharge curve and the
// DefaultCutoffVoltage cutoff.
type ThinFilm struct {
	available float64
	bound     float64
	delivered float64
	dead      bool
}

// NewThinFilm returns a fresh thin-film battery.
func NewThinFilm() *ThinFilm {
	return &ThinFilm{available: capAvailable, bound: capBound}
}

// availableDepth is the depth of discharge of the available well, which
// drives the output voltage: a well drained faster than diffusion can refill
// it shows a depressed voltage, reproducing the rate-capacity effect.
func (b *ThinFilm) availableDepth() float64 {
	d := 1 - b.available/capAvailable
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// Voltage returns the present terminal voltage in volts, 0 once dead; Fig 2
// samples it.
func (b *ThinFilm) Voltage() float64 {
	if b.dead {
		return 0
	}
	return liFreeThinFilm.VoltageAt(b.availableDepth())
}

// Draw implements Battery.
func (b *ThinFilm) Draw(amountPJ float64) error {
	if amountPJ < 0 {
		return fmt.Errorf("battery: negative draw %g pJ", amountPJ)
	}
	if b.dead {
		return ErrDead
	}
	if amountPJ > b.available {
		// Brown-out: the available charge cannot cover the operation.
		b.delivered += b.available
		b.available = 0
		b.dead = true
		return ErrDead
	}
	b.available -= amountPJ
	b.delivered += amountPJ
	if b.Voltage() < DefaultCutoffVoltage {
		b.dead = true
		return ErrDead
	}
	return nil
}

// Rest implements Battery: charge diffuses from the bound well into the
// available well, modelling the recovery effect of the discrete-time model.
func (b *ThinFilm) Rest(cycles int64) {
	if b.dead || cycles <= 0 {
		return
	}
	// Exact solution of the linear two-well diffusion over `cycles` steps.
	h1 := b.available / capAvailable
	h2 := b.bound / capBound
	if h2 <= h1 {
		return
	}
	decay := math.Exp(-ThinFilmRecoveryPerCycle * float64(cycles))
	diff := (h2 - h1) * decay
	// Total charge is conserved; the equilibrium height is the weighted mean.
	heq := (b.available + b.bound) / (capAvailable + capBound)
	newH1 := heq - diff*capBound/(capAvailable+capBound)
	newH2 := heq + diff*capAvailable/(capAvailable+capBound)
	// float64() rounds the product, so arm64 cannot fuse it into an FMA.
	b.available = float64(newH1 * capAvailable)
	b.bound = float64(newH2 * capBound)
	if b.available > capAvailable {
		b.bound += b.available - capAvailable
		b.available = capAvailable
	}
}

// RemainingPJ implements Battery.
func (b *ThinFilm) RemainingPJ() float64 { return b.available + b.bound }

// NominalPJ implements Battery.
func (b *ThinFilm) NominalPJ() float64 { return thinFilmNominalPJ }

// DeliveredPJ implements Battery.
func (b *ThinFilm) DeliveredPJ() float64 { return b.delivered }

// LevelFraction implements Battery. A thin-film node estimates its remaining
// charge from its terminal voltage: the fraction of the voltage swing between
// the cutoff and the fresh-cell voltage that is still available. Under light,
// duty-cycled load this tracks the overall depth of discharge; under
// sustained heavy load the depressed voltage of the draining available well
// makes the node report a low level early, which is exactly the signal EAR
// needs to steer traffic away before the node browns out.
func (b *ThinFilm) LevelFraction() float64 {
	if b.dead {
		return 0
	}
	full := liFreeThinFilm.VoltageAt(0)
	frac := (b.Voltage() - DefaultCutoffVoltage) / (full - DefaultCutoffVoltage)
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// Dead implements Battery.
func (b *ThinFilm) Dead() bool { return b.dead }

// Factory builds fresh batteries of a particular model; the simulator uses it
// to equip every node (and controller) with an identical, independent battery
// as required by the paper's "same initial capacity" assumption.
type Factory func() Battery

// IdealFactory returns a Factory producing ideal batteries of the given
// nominal capacity.
func IdealFactory(nominalPJ float64) Factory {
	return func() Battery { return MustIdeal(nominalPJ) }
}

// DefaultThinFilmFactory returns a Factory producing fresh thin-film
// batteries.
func DefaultThinFilmFactory() Factory { return func() Battery { return NewThinFilm() } }
