package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPicojoulesPerCycle(t *testing.T) {
	// 1 mW at 100 MHz is 10 pJ per cycle.
	if got := PicojoulesPerCycle(1); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("PicojoulesPerCycle(1 mW) = %g, want 10", got)
	}
	if got := PicojoulesPerCycle(6.94); !almostEqual(got, 69.4, 1e-9) {
		t.Fatalf("PicojoulesPerCycle(6.94 mW) = %g, want 69.4", got)
	}
	if got := PicojoulesPerCycle(0); got != 0 {
		t.Fatalf("PicojoulesPerCycle(0) = %g, want 0", got)
	}
}

func TestPaperTransmissionLineAnchorsExact(t *testing.T) {
	cases := []struct {
		lengthCM float64
		want     float64
	}{
		{1, 0.4472},
		{10, 4.4472},
		{20, 11.867},
		{100, 53.082},
	}
	for _, tc := range cases {
		if got := PerBitPJ(tc.lengthCM); !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("PerBitPJ(%g cm) = %g, want %g", tc.lengthCM, got, tc.want)
		}
	}
}

func TestTransmissionLineInterpolation(t *testing.T) {
	// Midpoint between 10 cm and 20 cm anchors.
	want := (4.4472 + 11.867) / 2
	if got := PerBitPJ(15); !almostEqual(got, want, 1e-9) {
		t.Errorf("PerBitPJ(15 cm) = %g, want %g", got, want)
	}
	// Below the first anchor: proportional to length.
	if got := PerBitPJ(0.5); !almostEqual(got, 0.4472/2, 1e-9) {
		t.Errorf("PerBitPJ(0.5 cm) = %g, want %g", got, 0.4472/2)
	}
	// Beyond the last anchor: extrapolation along the last segment slope.
	slope := (53.082 - 11.867) / 80.0
	want = 53.082 + 20*slope
	if got := PerBitPJ(120); !almostEqual(got, want, 1e-9) {
		t.Errorf("PerBitPJ(120 cm) = %g, want %g", got, want)
	}
	if got := PerBitPJ(0); got != 0 {
		t.Errorf("PerBitPJ(0) = %g, want 0", got)
	}
	if got := PerBitPJ(-3); got != 0 {
		t.Errorf("PerBitPJ(-3) = %g, want 0", got)
	}
}

func TestTransmissionLineMonotonicityProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		la := float64(a%20000)/100 + 0.01 // 0.01 .. 200 cm
		lb := float64(b%20000)/100 + 0.01
		ea, eb := PerBitPJ(la), PerBitPJ(lb)
		if la < lb {
			return ea <= eb
		}
		if la > lb {
			return ea >= eb
		}
		return ea == eb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketEnergyScalesWithBits(t *testing.T) {
	per := PerBitPJ(1)
	if got := PacketEnergyPJ(1, 261); !almostEqual(got, per*261, 1e-9) {
		t.Fatalf("PacketEnergyPJ(1 cm, 261 bits) = %g, want %g", got, per*261)
	}
	if got := PacketEnergyPJ(1, 0); got != 0 {
		t.Fatalf("PacketEnergyPJ with zero bits = %g, want 0", got)
	}
	if got := PacketEnergyPJ(1, -5); got != 0 {
		t.Fatalf("PacketEnergyPJ with negative bits = %g, want 0", got)
	}
}

func TestSharedMediumSlotAccounting(t *testing.T) {
	if got := SlotEnergyPJ(10); !almostEqual(got, 10*MediumPJPerBit, 1e-9) {
		t.Errorf("SlotEnergyPJ(10) = %g, want %g", got, 10*MediumPJPerBit)
	}
	if got := SlotEnergyPJ(-1); got != 0 {
		t.Errorf("SlotEnergyPJ(-1) = %g, want 0", got)
	}
}

func TestControllerEnergy(t *testing.T) {
	// 100 cycles active: (6.94+0.57) mW -> 75.1 pJ/cycle -> 7510 pJ.
	if got := ControllerActiveEnergyPJ(100); !almostEqual(got, 7510, 1e-6) {
		t.Errorf("ControllerActiveEnergyPJ(100) = %g, want 7510", got)
	}
	if ControllerActiveEnergyPJ(0) != 0 || ControllerActiveEnergyPJ(-5) != 0 {
		t.Error("non-positive cycle counts must consume no energy")
	}
}
