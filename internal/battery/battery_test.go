package battery

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestIdealBatteryLifecycle(t *testing.T) {
	b := MustIdeal(1000)
	if b.NominalPJ() != 1000 || b.RemainingPJ() != 1000 {
		t.Fatalf("fresh battery: nominal=%g remaining=%g", b.NominalPJ(), b.RemainingPJ())
	}
	if b.Dead() {
		t.Fatal("fresh battery reported dead")
	}
	if b.LevelFraction() != 1 {
		t.Fatalf("fresh ideal level = %g, want 1", b.LevelFraction())
	}
	for i := 0; i < 10; i++ {
		if err := b.Draw(100); err != nil && i < 9 {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	if !b.Dead() {
		t.Fatalf("battery should be dead after drawing its full capacity, remaining=%g", b.RemainingPJ())
	}
	if b.LevelFraction() != 0 {
		t.Fatalf("dead ideal battery level = %g, want 0", b.LevelFraction())
	}
	if err := b.Draw(1); !errors.Is(err, ErrDead) {
		t.Fatalf("draw on dead battery error = %v, want ErrDead", err)
	}
	if !almost(b.DeliveredPJ(), 1000, 1e-9) {
		t.Fatalf("DeliveredPJ = %g, want 1000", b.DeliveredPJ())
	}
}

func TestIdealBatteryOverdraw(t *testing.T) {
	b := MustIdeal(100)
	if err := b.Draw(150); !errors.Is(err, ErrDead) {
		t.Fatalf("overdraw error = %v, want ErrDead", err)
	}
	if !b.Dead() {
		t.Fatal("overdraw must kill the battery")
	}
}

func TestIdealBatteryRejectsNegativeDraw(t *testing.T) {
	b := MustIdeal(100)
	if err := b.Draw(-1); err == nil {
		t.Fatal("negative draw should be rejected")
	}
}

func TestNewIdealValidation(t *testing.T) {
	if _, err := NewIdeal(0); err == nil {
		t.Error("zero capacity should be rejected")
	}
	if _, err := NewIdeal(-5); err == nil {
		t.Error("negative capacity should be rejected")
	}
}

func TestMustIdealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIdeal(-1) did not panic")
		}
	}()
	MustIdeal(-1)
}

func TestLevelQuantization(t *testing.T) {
	b := MustIdeal(1000)
	if got := Level(b, 8); got != 7 {
		t.Fatalf("full battery level = %d, want 7", got)
	}
	if err := b.Draw(500); err != nil {
		t.Fatal(err)
	}
	if got := Level(b, 8); got != 4 {
		t.Fatalf("half battery level = %d, want 4", got)
	}
	if err := b.Draw(437.5); err != nil {
		t.Fatal(err)
	}
	if got := Level(b, 8); got != 0 {
		t.Fatalf("nearly-empty battery level = %d, want 0", got)
	}
	if got := Level(b, 1); got != 0 {
		t.Fatalf("single-level quantization = %d, want 0", got)
	}
	if err := b.Draw(100); !errors.Is(err, ErrDead) {
		t.Fatal("expected battery to die")
	}
	if got := Level(b, 8); got != 0 {
		t.Fatalf("dead battery level = %d, want 0", got)
	}
}

func TestLevelMonotoneProperty(t *testing.T) {
	prop := func(drawPermille uint16, levels uint8) bool {
		nLevels := int(levels%15) + 2
		b := MustIdeal(1000)
		amount := float64(drawPermille % 1000) // 0..999 pJ
		if err := b.Draw(amount); err != nil {
			return false
		}
		l := Level(b, nLevels)
		return l >= 0 && l <= nLevels-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkProfile reports why p is not a usable discharge curve: it must span
// depth of discharge 0..1 with strictly increasing depths and non-increasing
// voltage.
func checkProfile(p DischargeProfile) error {
	if len(p) < 2 {
		return errors.New("fewer than two points")
	}
	if p[0].DepthOfDischarge != 0 || p[len(p)-1].DepthOfDischarge != 1 {
		return errors.New("does not span depth of discharge 0..1")
	}
	for i := 1; i < len(p); i++ {
		if p[i].DepthOfDischarge <= p[i-1].DepthOfDischarge {
			return fmt.Errorf("depths not strictly increasing at index %d", i)
		}
		if p[i].Voltage > p[i-1].Voltage {
			return fmt.Errorf("voltage increases at index %d", i)
		}
	}
	return nil
}

func TestDischargeProfileValidate(t *testing.T) {
	if err := checkProfile(LiFreeThinFilmProfile()); err != nil {
		t.Fatalf("Fig 2 profile invalid: %v", err)
	}
	bad := []DischargeProfile{
		{},
		{{0, 4}},
		{{0.1, 4}, {1, 3}},                       // does not start at 0
		{{0, 4}, {0.9, 3}},                       // does not end at 1
		{{0, 4}, {0.5, 3.5}, {0.5, 3}, {1, 2.9}}, // duplicate depth
		{{0, 4}, {0.5, 4.2}, {1, 3}},             // voltage increases
	}
	for i, p := range bad {
		if err := checkProfile(p); err == nil {
			t.Errorf("bad profile %d passed the check", i)
		}
	}
}

func TestDischargeProfileInterpolation(t *testing.T) {
	p := DischargeProfile{{0, 4.0}, {0.5, 3.5}, {1, 3.0}}
	cases := []struct{ depth, want float64 }{
		{-0.5, 4.0}, {0, 4.0}, {0.25, 3.75}, {0.5, 3.5}, {0.75, 3.25}, {1, 3.0}, {1.5, 3.0},
	}
	for _, tc := range cases {
		if got := p.VoltageAt(tc.depth); !almost(got, tc.want, 1e-9) {
			t.Errorf("VoltageAt(%g) = %g, want %g", tc.depth, got, tc.want)
		}
	}
	var empty DischargeProfile
	if empty.VoltageAt(0.5) != 0 {
		t.Error("empty profile should report 0 V")
	}
}

func TestThinFilmFreshState(t *testing.T) {
	b := NewThinFilm()
	if b.Dead() {
		t.Fatal("fresh thin-film battery reported dead")
	}
	if !almost(b.RemainingPJ(), DefaultNominalPJ, 1e-9) {
		t.Fatalf("fresh remaining = %g, want %g", b.RemainingPJ(), float64(DefaultNominalPJ))
	}
	if v := b.Voltage(); v < 4.0 || v > 4.3 {
		t.Fatalf("fresh voltage = %g, want near 4.18", v)
	}
	if b.DeliveredPJ() != 0 {
		t.Fatal("fresh battery should have delivered nothing")
	}
}

func TestThinFilmContinuousHammeringDeliversSmallFraction(t *testing.T) {
	// A node that never rests should reach cutoff after delivering roughly its
	// available-well charge — the rate-capacity effect the EAR/SDR gap relies on.
	b := NewThinFilm()
	var delivered float64
	for i := 0; i < 100000; i++ {
		if err := b.Draw(300); err != nil {
			break
		}
		delivered += 300
	}
	if !b.Dead() {
		t.Fatal("hammered battery never died")
	}
	frac := delivered / b.NominalPJ()
	if frac > 0.30 {
		t.Fatalf("hammered battery delivered %.1f%% of nominal, want < 30%%", 100*frac)
	}
	if frac < 0.05 {
		t.Fatalf("hammered battery delivered only %.1f%% of nominal, model too aggressive", 100*frac)
	}
	if b.RemainingPJ() <= 0 {
		t.Fatal("a hammered battery must strand energy at cutoff")
	}
}

func TestThinFilmDutyCycledDeliversMostOfNominal(t *testing.T) {
	// A node that rests between operations (as under EAR's balanced load)
	// should deliver the large majority of its nominal capacity.
	b := NewThinFilm()
	var delivered float64
	for i := 0; i < 2000; i++ {
		if err := b.Draw(300); err != nil {
			break
		}
		delivered += 300
		b.Rest(60000)
	}
	frac := delivered / b.NominalPJ()
	if frac < 0.80 {
		t.Fatalf("duty-cycled battery delivered %.1f%% of nominal, want >= 80%%", 100*frac)
	}
}

func TestThinFilmRecoveryRaisesVoltage(t *testing.T) {
	b := NewThinFilm()
	// Drain a good part of the available well.
	for i := 0; i < 12; i++ {
		if err := b.Draw(300); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	vStressed := b.Voltage()
	b.Rest(5_000_000)
	vRecovered := b.Voltage()
	if vRecovered <= vStressed {
		t.Fatalf("voltage did not recover: stressed %.3f V, rested %.3f V", vStressed, vRecovered)
	}
}

func TestThinFilmRestConservesCharge(t *testing.T) {
	prop := func(draws uint8, restCycles uint32) bool {
		b := NewThinFilm()
		for i := 0; i < int(draws%40); i++ {
			if err := b.Draw(250); err != nil {
				return true // dying early is fine; nothing to conserve after that
			}
		}
		before := b.RemainingPJ()
		b.Rest(int64(restCycles % 10_000_000))
		after := b.RemainingPJ()
		return math.Abs(before-after) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThinFilmVoltageMonotoneUnderContinuousDraw(t *testing.T) {
	b := NewThinFilm()
	prev := b.Voltage()
	for {
		if err := b.Draw(100); err != nil {
			break
		}
		v := b.Voltage()
		if v > prev+1e-9 {
			t.Fatalf("voltage increased under continuous draw: %.4f -> %.4f", prev, v)
		}
		prev = v
	}
}

func TestThinFilmDrawAccounting(t *testing.T) {
	b := NewThinFilm()
	if err := b.Draw(1234); err != nil {
		t.Fatal(err)
	}
	if !almost(b.DeliveredPJ(), 1234, 1e-9) {
		t.Fatalf("DeliveredPJ = %g, want 1234", b.DeliveredPJ())
	}
	if !almost(b.RemainingPJ(), DefaultNominalPJ-1234, 1e-9) {
		t.Fatalf("RemainingPJ = %g, want %g", b.RemainingPJ(), DefaultNominalPJ-1234.0)
	}
	if err := b.Draw(-1); err == nil {
		t.Fatal("negative draw should be rejected")
	}
}

func TestThinFilmDeadBatteryRejectsUse(t *testing.T) {
	b := NewThinFilm()
	for {
		if err := b.Draw(50); err != nil {
			break
		}
	}
	if !b.Dead() {
		t.Fatal("battery should be dead")
	}
	if b.Voltage() != 0 {
		t.Fatalf("dead battery voltage = %g, want 0", b.Voltage())
	}
	if err := b.Draw(1); !errors.Is(err, ErrDead) {
		t.Fatalf("draw on dead battery = %v, want ErrDead", err)
	}
	remaining := b.RemainingPJ()
	b.Rest(1_000_000)
	if b.RemainingPJ() != remaining {
		t.Fatal("dead battery must not recover")
	}
}

func TestThinFilmSlowDischargeFollowsProfile(t *testing.T) {
	// With plenty of rest between small draws the two wells stay balanced and
	// the terminal voltage should track the published discharge curve within
	// a small tolerance.
	b := NewThinFilm()
	profile := LiFreeThinFilmProfile()
	for {
		if err := b.Draw(60); err != nil {
			break
		}
		b.Rest(2_000_000)
		dod := b.DeliveredPJ() / b.NominalPJ()
		want := profile.VoltageAt(dod)
		if math.Abs(b.Voltage()-want) > 0.15 {
			t.Fatalf("at DoD %.2f voltage %.3f deviates from profile %.3f by more than 0.15 V",
				dod, b.Voltage(), want)
		}
		if dod > 0.9 {
			break
		}
	}
	if b.DeliveredPJ()/b.NominalPJ() < 0.9 {
		t.Fatalf("slow discharge delivered only %.1f%% before dying",
			100*b.DeliveredPJ()/b.NominalPJ())
	}
}

func TestFactoriesProduceIndependentBatteries(t *testing.T) {
	for name, factory := range map[string]Factory{
		"ideal":    IdealFactory(500),
		"thinfilm": DefaultThinFilmFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			a := factory()
			b := factory()
			if err := a.Draw(100); err != nil {
				t.Fatal(err)
			}
			if b.DeliveredPJ() != 0 {
				t.Fatal("drawing from one battery affected another")
			}
			if a.NominalPJ() != b.NominalPJ() {
				t.Fatal("factory produced batteries with different capacities")
			}
		})
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
