package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseExperimentsAcceptsKnownNames accepts every listed name, alone and
// in a comma-separated list, and keeps the list's order.
func TestParseExperimentsAcceptsKnownNames(t *testing.T) {
	for _, name := range experimentNames {
		got, err := parseExperiments(name)
		if err != nil {
			t.Fatalf("-experiment %s: %v", name, err)
		}
		if !slices.Equal(got, []string{name}) {
			t.Fatalf("-experiment %s selected %v", name, got)
		}
	}
	got, err := parseExperiments("fig7,table2,ablation-q")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig7", "table2", "ablation-q"}; !slices.Equal(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

// TestParseExperimentsRejectsUnknownNames fails a list with any unknown name,
// even next to a known one, and names the valid experiments in the error.
func TestParseExperimentsRejectsUnknownNames(t *testing.T) {
	for _, list := range []string{"bogus", "scaling", "fig2,bogus", "bogus,fig2", "fig2,,fig7", "", "Fig2", " fig2"} {
		_, err := parseExperiments(list)
		if err == nil {
			t.Errorf("-experiment %q accepted", list)
			continue
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-experiment %q: error %q does not list %s", list, err, name)
			}
		}
	}
}
