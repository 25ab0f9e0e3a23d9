// Package tdma implements the centralized control mechanism of Sec 5.3: a
// time-division multiple-access scheme on a narrow shared medium over which
// every node periodically uploads its status (battery level, deadlock flag)
// and the active central controller downloads next-hop routing updates.
//
// The package models the energy cost of the scheme — upload/download slots on
// the shared medium and the controller's own dynamic/leakage consumption —
// and the pool of redundant controllers whose finite batteries limit system
// lifetime in the Fig 8 experiment. The actual routing computation lives in
// the routing package; the cycle-accurate orchestration lives in sim.
package tdma

import (
	"errors"
	"fmt"

	"repro/internal/battery"
	"repro/internal/energy"
)

// The TDMA calibration of the paper reproduction (see DESIGN.md): 4-bit
// status uploads and 16-bit route downloads on the 2-bit shared medium
// (energy.MediumWidthBits), one frame every 1024 cycles, and a deadlock
// threshold of two frames.
const (
	// statusBits is the payload of one upload slot: the quantised battery
	// level plus a deadlock flag.
	statusBits = 4
	// routeBits is the payload of one download slot carrying a routing-table
	// update for one node.
	routeBits = 16
	// FramePeriodCycles is the number of clock cycles between the starts of
	// consecutive TDMA frames.
	FramePeriodCycles int64 = 1024
	// controllerActiveCycles is the number of cycles the active controller
	// spends awake per frame for slot bookkeeping, independent of whether
	// the routing algorithm is re-run.
	controllerActiveCycles = 16
	// controllerComputeCyclesPerNode is the number of additional active
	// cycles per network node spent when the controller re-runs the routing
	// algorithm because the reported system state changed.
	controllerComputeCyclesPerNode = 1
	// DeadlockThresholdFrames is the number of consecutive frames a job may
	// sit at the same node before the node reports a deadlock in its next
	// upload slot.
	DeadlockThresholdFrames = 2
)

// UploadEnergyPerNodePJ returns the shared-medium energy charged to one node
// for its upload slot in one frame.
func UploadEnergyPerNodePJ() float64 { return energy.SlotEnergyPJ(statusBits) }

// DownloadEnergyPerNodePJ returns the shared-medium energy spent to download
// one node's routing update.
func DownloadEnergyPerNodePJ() float64 { return energy.SlotEnergyPJ(routeBits) }

// ControllerFrameEnergyPJ returns the energy the active controller consumes
// during one frame: its bookkeeping activity plus, when recompute is true,
// the routing-algorithm execution for a k-node network.
func ControllerFrameEnergyPJ(k int, recompute bool) float64 {
	cycles := controllerActiveCycles
	if recompute {
		cycles += controllerComputeCyclesPerNode * k
	}
	return energy.ControllerActiveEnergyPJ(cycles)
}

// Errors returned by the controller pool.
var (
	ErrNoControllers      = errors.New("tdma: controller pool needs at least one controller")
	ErrAllControllersDead = errors.New("tdma: all controllers are dead")
)

// Controller is one centralized controller with an optional finite battery.
// A nil battery models the infinite-energy controller of Sec 7.1/7.2.
type Controller struct {
	// ID is the controller's index in the pool.
	ID int
	// Battery is the attached battery, or nil for an infinite energy source.
	Battery battery.Battery

	dead bool
}

// Dead reports whether the controller has exhausted its battery.
func (c *Controller) Dead() bool { return c.dead }

// Drain removes energy from the controller's battery. Infinite-energy
// controllers always succeed.
func (c *Controller) Drain(amountPJ float64) error {
	if c.dead {
		return fmt.Errorf("tdma: controller %d is dead", c.ID)
	}
	if c.Battery == nil {
		return nil
	}
	if err := c.Battery.Draw(amountPJ); err != nil {
		c.dead = true
		return err
	}
	return nil
}

// Rest lets the controller's battery recover for the given number of cycles.
func (c *Controller) Rest(cycles int64) {
	if c.Battery != nil && !c.dead {
		c.Battery.Rest(cycles)
	}
}

// Pool manages the redundant controllers of Sec 7.3. Exactly one controller
// is active per frame; the active role rotates round-robin over the living
// controllers so their batteries drain evenly, and a dead controller's duties
// fail over to the next living one.
type Pool struct {
	controllers []*Controller
	nextActive  int
}

// NewPool creates a pool of n controllers. If factory is non-nil every
// controller receives its own battery from it; otherwise the controllers have
// infinite energy.
func NewPool(n int, factory battery.Factory) (*Pool, error) {
	if n < 1 {
		return nil, ErrNoControllers
	}
	p := &Pool{controllers: make([]*Controller, n)}
	for i := 0; i < n; i++ {
		c := &Controller{ID: i}
		if factory != nil {
			c.Battery = factory()
		}
		p.controllers[i] = c
	}
	return p, nil
}

// AliveCount returns the number of controllers that are still alive.
func (p *Pool) AliveCount() int {
	alive := 0
	for _, c := range p.controllers {
		if !c.Dead() {
			alive++
		}
	}
	return alive
}

// AllDead reports whether every controller in the pool is dead.
func (p *Pool) AllDead() bool { return p.AliveCount() == 0 }

// Active returns the controller that will serve the next frame without
// advancing the rotation.
func (p *Pool) Active() (*Controller, error) {
	if p.AllDead() {
		return nil, ErrAllControllersDead
	}
	idx := p.nextActive % len(p.controllers)
	for i := 0; i < len(p.controllers); i++ {
		c := p.controllers[(idx+i)%len(p.controllers)]
		if !c.Dead() {
			return c, nil
		}
	}
	return nil, ErrAllControllersDead
}

// ServeFrame charges the energy of one frame to the active controller and
// rotates the active role to the next living controller. Idle controllers
// are not charged: the model counts a controller's energy only while it
// serves a frame. It returns ErrAllControllersDead once no controller can
// serve.
func (p *Pool) ServeFrame(activePJ float64) error {
	active, err := p.Active()
	if err != nil {
		return err
	}
	// A controller that browns out mid-frame simply drops out; its remaining
	// duties fail over to the next living controller at the next frame.
	_ = active.Drain(activePJ)
	p.nextActive = (active.ID + 1) % len(p.controllers)
	if p.AllDead() {
		return ErrAllControllersDead
	}
	return nil
}

// RestAll lets every living controller's battery recover for the given
// number of cycles.
func (p *Pool) RestAll(cycles int64) {
	for _, c := range p.controllers {
		c.Rest(cycles)
	}
}
