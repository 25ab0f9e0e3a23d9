package tdma

import (
	"errors"
	"math"
	"testing"

	"repro/internal/battery"
	"repro/internal/energy"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if p.StatusBits != 4 || p.Medium.WidthBits != 2 {
		t.Errorf("status slots of %d bits on a %d-bit medium, want 4 on 2 as in the paper", p.StatusBits, p.Medium.WidthBits)
	}
	if p.RouteBits <= 0 || p.Medium.PJPerBit < 0 || p.FramePeriodCycles <= 0 || p.DeadlockThresholdFrames < 1 {
		t.Errorf("default params out of range: %+v", p)
	}
}

func TestSlotEnergyAccounting(t *testing.T) {
	p := DefaultParams()
	wantUp := float64(p.StatusBits) * p.Medium.PJPerBit
	if got := p.UploadEnergyPerNodePJ(); math.Abs(got-wantUp) > 1e-9 {
		t.Errorf("UploadEnergyPerNodePJ = %g, want %g", got, wantUp)
	}
	wantDown := float64(p.RouteBits) * p.Medium.PJPerBit
	if got := p.DownloadEnergyPerNodePJ(); math.Abs(got-wantDown) > 1e-9 {
		t.Errorf("DownloadEnergyPerNodePJ = %g, want %g", got, wantDown)
	}
}

func TestFrameLengthScalesWithNodesAndFitsPeriod(t *testing.T) {
	p := DefaultParams()
	l16 := p.FrameLengthCycles(16)
	l64 := p.FrameLengthCycles(64)
	if l64 != 4*l16 {
		t.Errorf("frame length did not scale linearly: 16 nodes -> %d, 64 nodes -> %d", l16, l64)
	}
	if l64 > p.FramePeriodCycles {
		t.Errorf("frame of an 8x8 mesh (%d cycles) does not fit in the frame period (%d cycles)",
			l64, p.FramePeriodCycles)
	}
}

func TestControllerFrameEnergy(t *testing.T) {
	p := DefaultParams()
	ctrl := energy.PaperController4x4()
	idle := p.ControllerFrameEnergyPJ(ctrl, 16, false)
	busy := p.ControllerFrameEnergyPJ(ctrl, 16, true)
	if idle <= 0 {
		t.Fatalf("bookkeeping frame energy = %g, want > 0", idle)
	}
	if busy <= idle {
		t.Fatalf("recompute frame energy (%g) must exceed bookkeeping energy (%g)", busy, idle)
	}
	wantBusy := ctrl.ActiveEnergyPJ(p.ControllerActiveCyclesPerFrame + p.ControllerComputeCyclesPerNode*16)
	if math.Abs(busy-wantBusy) > 1e-9 {
		t.Errorf("recompute frame energy = %g, want %g", busy, wantBusy)
	}
}

func TestControllerDrainInfiniteEnergy(t *testing.T) {
	c := &Controller{ID: 0, Power: energy.PaperController4x4()}
	for i := 0; i < 1000; i++ {
		if err := c.Drain(1e6); err != nil {
			t.Fatalf("infinite-energy controller died: %v", err)
		}
	}
	if c.Dead() {
		t.Fatal("infinite-energy controller reported dead")
	}
}

func TestControllerDrainFiniteBattery(t *testing.T) {
	c := &Controller{ID: 0, Battery: battery.MustIdeal(1000)}
	if err := c.Drain(600); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(600); err == nil {
		t.Fatal("overdraw should kill the controller")
	}
	if !c.Dead() {
		t.Fatal("controller should be dead")
	}
	if err := c.Drain(1); err == nil {
		t.Fatal("dead controller accepted a drain")
	}
	// Rest on a dead controller must be a no-op and not panic.
	c.Rest(1000)
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, energy.PaperController4x4(), nil); !errors.Is(err, ErrNoControllers) {
		t.Fatalf("NewPool(0) error = %v, want ErrNoControllers", err)
	}
}

func TestPoolRotatesActiveController(t *testing.T) {
	pool, err := NewPool(3, energy.PaperController4x4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 6; i++ {
		active, err := pool.Active()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, active.ID)
		if err := pool.ServeFrame(100, 10); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation order = %v, want %v", order, want)
		}
	}
	if pool.ConsumedPJ() != 6*(100+2*10) {
		t.Errorf("ConsumedPJ = %g, want %g", pool.ConsumedPJ(), 6.0*(100+2*10))
	}
}

func TestPoolFailover(t *testing.T) {
	// Three controllers with tiny batteries: as they die one by one the
	// active role must fail over to a living controller, and once all are
	// dead ServeFrame must report it.
	pool, err := NewPool(3, energy.PaperController4x4(), battery.IdealFactory(250))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		if err := pool.ServeFrame(100, 0); err != nil {
			if !errors.Is(err, ErrAllControllersDead) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		frames++
		if frames > 100 {
			t.Fatal("pool never died")
		}
	}
	if !pool.AllDead() {
		t.Fatal("pool should be all dead")
	}
	// Each controller serves 2 full frames of 100 pJ (250 pJ battery);
	// with 3 controllers the pool must survive at least 6 frames.
	if frames < 6 {
		t.Fatalf("pool survived only %d frames, want at least 6", frames)
	}
	if _, err := pool.Active(); !errors.Is(err, ErrAllControllersDead) {
		t.Fatalf("Active on dead pool = %v, want ErrAllControllersDead", err)
	}
}

func TestPoolLifetimeScalesWithControllerCount(t *testing.T) {
	lifetime := func(n int) int {
		pool, err := NewPool(n, energy.PaperController4x4(), battery.IdealFactory(1000))
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for pool.ServeFrame(100, 1) == nil {
			frames++
			if frames > 10000 {
				break
			}
		}
		return frames
	}
	l1, l4, l10 := lifetime(1), lifetime(4), lifetime(10)
	if !(l1 < l4 && l4 < l10) {
		t.Fatalf("pool lifetime not increasing with controller count: %d, %d, %d", l1, l4, l10)
	}
}

func TestPoolIdleLeakageAffectsAllControllers(t *testing.T) {
	pool, err := NewPool(2, energy.PaperController4x4(), battery.IdealFactory(100))
	if err != nil {
		t.Fatal(err)
	}
	// Idle leakage alone (active energy 0) should eventually kill both
	// controllers even though only one is "active" per frame.
	frames := 0
	for pool.ServeFrame(0, 10) == nil {
		frames++
		if frames > 1000 {
			t.Fatal("pool never died from leakage")
		}
	}
	if pool.AliveCount() != 0 {
		t.Fatalf("AliveCount = %d after leakage death, want 0", pool.AliveCount())
	}
}

func TestPoolAccessors(t *testing.T) {
	pool, err := NewPool(5, energy.ControllerForMesh(25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 5 || pool.AliveCount() != 5 || pool.AllDead() {
		t.Fatalf("fresh pool state wrong: size=%d alive=%d", pool.Size(), pool.AliveCount())
	}
	if len(pool.Controllers()) != 5 {
		t.Fatalf("Controllers() returned %d entries", len(pool.Controllers()))
	}
	pool.RestAll(1000) // must not panic with nil batteries
}

// TestPoolPartialDeathOrdering pins the failover order of a partially dead
// pool: controllers die lowest-budget-first under round-robin rotation, the
// active role skips the dead, and ErrAllControllersDead surfaces exactly on
// the frame the last controller browns out.
func TestPoolPartialDeathOrdering(t *testing.T) {
	// Three controllers, 250 pJ each, 100 pJ per active frame, no idle cost:
	// each controller serves 2 full frames and browns out on its 3rd.
	pool, err := NewPool(3, energy.PaperController4x4(), battery.IdealFactory(250))
	if err != nil {
		t.Fatal(err)
	}
	var aliveAfter []int
	var fatalFrame int
	for frame := 1; frame <= 30; frame++ {
		err := pool.ServeFrame(100, 0)
		aliveAfter = append(aliveAfter, pool.AliveCount())
		if err != nil {
			if !errors.Is(err, ErrAllControllersDead) {
				t.Fatalf("frame %d: err = %v, want ErrAllControllersDead", frame, err)
			}
			fatalFrame = frame
			break
		}
	}
	// Frames 1-6: two full rounds, all alive. Frames 7-9: the third 100 pJ
	// draw browns out controllers 0, 1, 2 in rotation order; the death of the
	// last one is the frame that returns the error.
	want := []int{3, 3, 3, 3, 3, 3, 2, 1, 0}
	if len(aliveAfter) != len(want) {
		t.Fatalf("pool served %d frames (alive trace %v), want %d", len(aliveAfter), aliveAfter, len(want))
	}
	for i := range want {
		if aliveAfter[i] != want[i] {
			t.Fatalf("alive trace = %v, want %v", aliveAfter, want)
		}
	}
	if fatalFrame != 9 {
		t.Fatalf("ErrAllControllersDead on frame %d, want 9", fatalFrame)
	}
	// Mid-death, the survivors must have kept the rotation going: frames 7-8
	// were served by living controllers even though the pool was partial.
	if pool.ConsumedPJ() != 9*100 {
		t.Errorf("ConsumedPJ = %g, want %g", pool.ConsumedPJ(), 9*100.0)
	}
}
