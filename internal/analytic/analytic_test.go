package analytic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/battery"
)

func TestCommunicationEnergyPerOpMatchesCalibration(t *testing.T) {
	a := app.AES128()
	c := CommunicationEnergyPerOp(a, 1.0)
	want := 261 * 0.4472
	if math.Abs(c-want) > 1e-9 {
		t.Fatalf("c = %g, want %g", c, want)
	}
}

func TestNormalizedEnergiesAES(t *testing.T) {
	a := app.AES128()
	c := 261 * 0.4472
	h, err := NormalizedEnergies(a, UniformCommEnergies(a, c))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		10 * (120.1 + c),
		9 * (73.34 + c),
		11 * (176.55 + c),
	}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-6 {
			t.Errorf("H[%d] = %g, want %g", i+1, h[i], want[i])
		}
	}
}

func TestNormalizedEnergiesValidation(t *testing.T) {
	a := app.AES128()
	if _, err := NormalizedEnergies(a, []float64{1, 2}); err == nil {
		t.Error("wrong-length comm energy slice accepted")
	}
	if _, err := NormalizedEnergies(a, []float64{1, -2, 3}); err == nil {
		t.Error("negative comm energy accepted")
	}
	if _, err := NormalizedEnergies(a, []float64{1, math.NaN(), 3}); err == nil {
		t.Error("NaN comm energy accepted")
	}
}

// TestUpperBoundReproducesTable2 checks the J* column of Table 2 of the
// paper for all five mesh sizes.
func TestUpperBoundReproducesTable2(t *testing.T) {
	a := app.AES128()
	cases := []struct {
		mesh   int
		wantJ  float64
		tolPct float64
	}{
		{4, 131.42, 0.1},
		{5, 205.25, 0.1},
		{6, 295.70, 0.1},
		{7, 402.48, 0.1},
		{8, 525.69, 0.1},
	}
	for _, tc := range cases {
		k := tc.mesh * tc.mesh
		b, err := MeshUpperBound(a, 1.0, battery.DefaultNominalPJ, k)
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.mesh, tc.mesh, err)
		}
		diffPct := math.Abs(b.Jobs-tc.wantJ) / tc.wantJ * 100
		if diffPct > tc.tolPct {
			t.Errorf("%dx%d: J* = %.2f, paper reports %.2f (%.2f%% off)",
				tc.mesh, tc.mesh, b.Jobs, tc.wantJ, diffPct)
		}
	}
}

func TestUpperBoundOptimalDuplicates(t *testing.T) {
	a := app.AES128()
	b, err := MeshUpperBound(a, 1.0, battery.DefaultNominalPJ, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates must sum to K and be ordered like the normalized energies:
	// module 3 (highest H) gets the most nodes, module 2 the fewest.
	var sum float64
	for _, d := range b.OptimalDuplicates {
		sum += d
	}
	if math.Abs(sum-16) > 1e-9 {
		t.Errorf("optimal duplicates sum to %g, want 16", sum)
	}
	if !(b.OptimalDuplicates[2] > b.OptimalDuplicates[0] && b.OptimalDuplicates[0] > b.OptimalDuplicates[1]) {
		t.Errorf("duplicates %v do not follow H ordering (module 3 > 1 > 2)", b.OptimalDuplicates)
	}
	// The paper's design rule: n_i* proportional to H_i.
	for i := range b.OptimalDuplicates {
		wantRatio := b.NormalizedEnergies[i] / b.TotalNormalizedEnergy()
		gotRatio := b.OptimalDuplicates[i] / 16
		if math.Abs(wantRatio-gotRatio) > 1e-12 {
			t.Errorf("module %d duplicate share %g, want %g", i+1, gotRatio, wantRatio)
		}
	}
}

func TestUpperBoundValidation(t *testing.T) {
	a := app.AES128()
	c := UniformCommEnergies(a, 100)
	if _, err := UpperBound(a, 0, 16, c); err == nil {
		t.Error("zero battery budget accepted")
	}
	if _, err := UpperBound(a, 1000, 0, c); err == nil {
		t.Error("zero node budget accepted")
	}
	if _, err := UpperBound(a, 1000, 16, []float64{1}); err == nil {
		t.Error("wrong-length comm energies accepted")
	}
	// 1e308 is finite, but J* = B*K/sum H_i overflows.
	for _, b := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e308} {
		if _, err := UpperBound(a, b, 16, c); !errors.Is(err, ErrBadBudget) {
			t.Errorf("battery budget %g: err = %v, want ErrBadBudget", b, err)
		}
	}
	// An application that skipped validation cannot smuggle a NaN or an
	// infinite energy into the bound.
	for _, e := range []float64{math.NaN(), math.Inf(1)} {
		bad := *a
		bad.Modules = append([]app.Module(nil), a.Modules...)
		bad.Modules[0].EnergyPerOpPJ = e
		if _, err := UpperBound(&bad, 1000, 16, c); err == nil {
			t.Errorf("module energy %g accepted", e)
		}
	}
}

func TestMeshUpperBoundRejectsBadHopLength(t *testing.T) {
	a := app.AES128()
	for _, h := range []float64{0, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := MeshUpperBound(a, h, battery.DefaultNominalPJ, 16); err == nil {
			t.Errorf("hop length %g accepted", h)
		}
	}
}

func TestBoundHelpers(t *testing.T) {
	a := app.AES128()
	b, err := MeshUpperBound(a, 1.0, battery.DefaultNominalPJ, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.CompletedJobsLimit() != 131 {
		t.Errorf("CompletedJobsLimit = %d, want 131", b.CompletedJobsLimit())
	}
	if got := b.Achieved(62.8); math.Abs(got-0.478) > 0.002 {
		t.Errorf("Achieved(62.8) = %.3f, want ~0.478 as in Table 2", got)
	}
	var zero Bound
	if zero.Achieved(10) != 0 {
		t.Error("Achieved on zero bound should be 0")
	}
	if b.BatteryBudgetPJ != battery.DefaultNominalPJ || b.NodeBudget != 16 {
		t.Error("bound did not echo its inputs")
	}
}

// TestUpperBoundScalingProperties verifies the structural properties of Eq 2:
// J* is linear in both B and K and decreases when any module gets more
// expensive.
func TestUpperBoundScalingProperties(t *testing.T) {
	a := app.AES128()
	prop := func(bRaw, kRaw uint16) bool {
		B := float64(bRaw%50000) + 1000
		K := int(kRaw%96) + 4
		b1, err := MeshUpperBound(a, 1.0, B, K)
		if err != nil {
			return false
		}
		b2, err := MeshUpperBound(a, 1.0, 2*B, K)
		if err != nil {
			return false
		}
		b3, err := MeshUpperBound(a, 1.0, B, 2*K)
		if err != nil {
			return false
		}
		// Longer hops -> more communication energy -> fewer jobs.
		b4, err := MeshUpperBound(a, 10.0, B, K)
		if err != nil {
			return false
		}
		return math.Abs(b2.Jobs-2*b1.Jobs) < 1e-6 &&
			math.Abs(b3.Jobs-2*b1.Jobs) < 1e-6 &&
			b4.Jobs < b1.Jobs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUpperBoundDominatesAnyIntegerMappingSplit(t *testing.T) {
	// For any integer mapping (n_1, n_2, n_3) summing to K, the jobs
	// achievable even with perfect balance within each module class,
	// min_i(n_i * B / H_i), must not exceed J*. This is the inequality chain
	// of Eq 1.
	a := app.AES128()
	c := CommunicationEnergyPerOp(a, 1.0)
	h, err := NormalizedEnergies(a, UniformCommEnergies(a, c))
	if err != nil {
		t.Fatal(err)
	}
	const B = battery.DefaultNominalPJ
	const K = 16
	bound, err := UpperBound(a, B, K, UniformCommEnergies(a, c))
	if err != nil {
		t.Fatal(err)
	}
	for n1 := 1; n1 <= K-2; n1++ {
		for n2 := 1; n2 <= K-n1-1; n2++ {
			n3 := K - n1 - n2
			achievable := math.Min(
				float64(n1)*B/h[0],
				math.Min(float64(n2)*B/h[1], float64(n3)*B/h[2]),
			)
			if achievable > bound.Jobs+1e-9 {
				t.Fatalf("integer mapping (%d,%d,%d) achieves %.2f > J* = %.2f",
					n1, n2, n3, achievable, bound.Jobs)
			}
		}
	}
}
