package main

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/topology"
)

// TestRejectsImpossibleInputs holds etanalyze to an error, not a bound, for
// every input that has no physical meaning.
func TestRejectsImpossibleInputs(t *testing.T) {
	for _, c := range []struct {
		modules string
		packet  int
	}{
		{"", -8},
		{"", 0},
		{"3:NaN,2:1", app.DefaultPacketBits},
		{"3:Inf,2:1", app.DefaultPacketBits},
		{"3:5,2:1", -8},
	} {
		if _, err := buildApplication(c.modules, c.packet); err == nil {
			t.Errorf("-modules %q -packet %d accepted", c.modules, c.packet)
		}
	}
	aes, err := buildApplication("", app.DefaultPacketBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ spacing, battery float64 }{
		{topology.DefaultSpacingCM, math.NaN()},
		{topology.DefaultSpacingCM, math.Inf(1)},
		{topology.DefaultSpacingCM, 0},
		{topology.DefaultSpacingCM, 1e308},
		{0, battery.DefaultNominalPJ},
		{-2, battery.DefaultNominalPJ},
		{math.NaN(), battery.DefaultNominalPJ},
	} {
		if _, err := analyseMesh(aes, c.spacing, c.battery, 4); err == nil {
			t.Errorf("-spacing %g -battery %g accepted", c.spacing, c.battery)
		}
	}
	for _, n := range []int{0, -3} {
		if _, err := analyseMesh(aes, topology.DefaultSpacingCM, battery.DefaultNominalPJ, n); err == nil {
			t.Errorf("-mesh %d accepted", n)
		}
	}
	if _, err := analyseMesh(aes, topology.DefaultSpacingCM, battery.DefaultNominalPJ, 4); err != nil {
		t.Errorf("default inputs rejected: %v", err)
	}
}
