package tdma

import (
	"errors"
	"math"
	"testing"

	"repro/internal/battery"
	"repro/internal/energy"
)

// TestPaperCalibration pins the paper's platform calibration, the values the
// simulator reads as fixed constants: the woven line's anchors (Sec 5.1.2),
// the shared medium and TDMA frame (Sec 5.3), the controller power
// (Sec 7.3) and the thin-film battery (Sec 5.1.3). The shape of the Fig 2
// discharge curve is checked in the battery package.
func TestPaperCalibration(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"line at 1 cm [pJ/bit]", energy.PerBitPJ(1), 0.4472},
		{"line at 10 cm [pJ/bit]", energy.PerBitPJ(10), 4.4472},
		{"line at 20 cm [pJ/bit]", energy.PerBitPJ(20), 11.867},
		{"line at 100 cm [pJ/bit]", energy.PerBitPJ(100), 53.082},
		{"medium width [bits]", energy.MediumWidthBits, 2},
		{"medium energy [pJ/bit]", energy.MediumPJPerBit, 0.7},
		{"status slot [bits]", statusBits, 4},
		{"route slot [bits]", routeBits, 16},
		{"frame period [cycles]", float64(FramePeriodCycles), 1024},
		{"controller bookkeeping [cycles]", controllerActiveCycles, 16},
		{"controller compute [cycles/node]", controllerComputeCyclesPerNode, 1},
		{"deadlock threshold [frames]", DeadlockThresholdFrames, 2},
		{"controller dynamic [mW]", energy.ControllerDynamicMW, 6.94},
		{"controller leakage [mW]", energy.ControllerLeakageMW, 0.57},
		{"thin-film available fraction", battery.ThinFilmAvailableFraction, 0.30},
		{"thin-film recovery [1/cycle]", battery.ThinFilmRecoveryPerCycle, 8e-5},
		{"thin-film nominal [pJ]", battery.NewThinFilm().NominalPJ(), 60000},
		{"cutoff [V]", battery.DefaultCutoffVoltage, 3.0},
	} {
		// The line is interpolated between its anchors, so an anchor may
		// come back one rounding step off the measured value.
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", tc.name, tc.got, tc.want)
		}
	}

}

// TestDefaultParamsValid checks the TDMA calibration is usable: 4-bit status
// slots on the 2-bit medium as in the paper, a non-empty route slot, a
// non-negative medium energy, a positive frame period and a deadlock
// threshold of at least one frame.
func TestDefaultParamsValid(t *testing.T) {
	if statusBits != 4 || energy.MediumWidthBits != 2 {
		t.Errorf("status slots of %d bits on a %d-bit medium, want 4 on 2 as in the paper", statusBits, energy.MediumWidthBits)
	}
	if routeBits <= 0 || energy.MediumPJPerBit < 0 || FramePeriodCycles <= 0 || DeadlockThresholdFrames < 1 {
		t.Errorf("TDMA calibration out of range: route %d bits, medium %g pJ/bit, period %d cycles, deadlock threshold %d frames",
			routeBits, energy.MediumPJPerBit, FramePeriodCycles, DeadlockThresholdFrames)
	}
}

func TestSlotEnergyAccounting(t *testing.T) {
	wantUp := float64(statusBits) * energy.MediumPJPerBit
	if got := UploadEnergyPerNodePJ(); math.Abs(got-wantUp) > 1e-9 {
		t.Errorf("UploadEnergyPerNodePJ = %g, want %g", got, wantUp)
	}
	wantDown := float64(routeBits) * energy.MediumPJPerBit
	if got := DownloadEnergyPerNodePJ(); math.Abs(got-wantDown) > 1e-9 {
		t.Errorf("DownloadEnergyPerNodePJ = %g, want %g", got, wantDown)
	}
}

func TestFrameLengthScalesWithNodesAndFitsPeriod(t *testing.T) {
	// Each slot takes ceil(bits/MediumWidthBits) cycles on the shared
	// medium, and every node has one upload and one download slot a frame.
	slot := func(bits int) int64 {
		return int64((bits + energy.MediumWidthBits - 1) / energy.MediumWidthBits)
	}
	if l64 := 64 * (slot(statusBits) + slot(routeBits)); l64 > FramePeriodCycles {
		t.Errorf("frame of an 8x8 mesh (%d cycles) does not fit in the frame period (%d cycles)",
			l64, FramePeriodCycles)
	}
}

func TestControllerFrameEnergy(t *testing.T) {
	idle := ControllerFrameEnergyPJ(16, false)
	busy := ControllerFrameEnergyPJ(16, true)
	if idle <= 0 {
		t.Fatalf("bookkeeping frame energy = %g, want > 0", idle)
	}
	if busy <= idle {
		t.Fatalf("recompute frame energy (%g) must exceed bookkeeping energy (%g)", busy, idle)
	}
	wantBusy := energy.ControllerActiveEnergyPJ(controllerActiveCycles + controllerComputeCyclesPerNode*16)
	if math.Abs(busy-wantBusy) > 1e-9 {
		t.Errorf("recompute frame energy = %g, want %g", busy, wantBusy)
	}
}

func TestControllerDrainInfiniteEnergy(t *testing.T) {
	c := &Controller{ID: 0}
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
	if _, err := NewPool(0, nil); !errors.Is(err, ErrNoControllers) {
		t.Fatalf("NewPool(0) error = %v, want ErrNoControllers", err)
	}
}

func TestPoolRotatesActiveController(t *testing.T) {
	pool, err := NewPool(3, battery.IdealFactory(1000))
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
		if err := pool.ServeFrame(100); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation order = %v, want %v", order, want)
		}
	}
	for _, c := range pool.controllers {
		if got := c.Battery.DeliveredPJ(); got != 2*100 {
			t.Errorf("controller %d delivered %g pJ, want %g", c.ID, got, 2*100.0)
		}
	}
}

func TestPoolFailover(t *testing.T) {
	// Three controllers with tiny batteries: as they die one by one the
	// active role must fail over to a living controller, and once all are
	// dead ServeFrame must report it.
	pool, err := NewPool(3, battery.IdealFactory(250))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		if err := pool.ServeFrame(100); err != nil {
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
		pool, err := NewPool(n, battery.IdealFactory(1000))
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for pool.ServeFrame(100) == nil {
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

func TestPoolAccessors(t *testing.T) {
	pool, err := NewPool(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.controllers) != 5 || pool.AliveCount() != 5 || pool.AllDead() {
		t.Fatalf("fresh pool state wrong: size=%d alive=%d", len(pool.controllers), pool.AliveCount())
	}
	pool.RestAll(1000) // must not panic with nil batteries
}

// TestPoolPartialDeathOrdering pins the failover order of a partially dead
// pool: controllers die lowest-budget-first under round-robin rotation, the
// active role skips the dead, and ErrAllControllersDead surfaces exactly on
// the frame the last controller browns out.
func TestPoolPartialDeathOrdering(t *testing.T) {
	// Three controllers, 250 pJ each, 100 pJ per active frame: each
	// controller serves 2 full frames and browns out on its 3rd.
	pool, err := NewPool(3, battery.IdealFactory(250))
	if err != nil {
		t.Fatal(err)
	}
	var aliveAfter []int
	var fatalFrame int
	for frame := 1; frame <= 30; frame++ {
		err := pool.ServeFrame(100)
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
	// were served by living controllers even though the pool was partial,
	// so every battery was drawn to its end.
	for _, c := range pool.controllers {
		if got := c.Battery.DeliveredPJ(); got != 250 {
			t.Errorf("controller %d delivered %g pJ, want its whole 250", c.ID, got)
		}
	}
}
