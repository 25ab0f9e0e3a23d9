package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultsSpecRoundTrip checks String's contract: every schedule ParseSpec
// accepts renders to a clause string that parses back to the same schedule.
// scenario.Spec.Normalized relies on it to give each schedule one canonical
// spelling. The seed corpus lives in testdata/fuzz; plain `go test` replays
// it.
func FuzzFaultsSpecRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		text := sp.String()
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v renders as %q, which does not parse: %v", s, sp, text, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("ParseSpec(%q) = %+v renders as %q, which parses to %+v", s, sp, text, back)
		}
	})
}
