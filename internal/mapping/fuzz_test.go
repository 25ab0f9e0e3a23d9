package mapping

import (
	"slices"
	"testing"
)

// FuzzParseExplicit checks String's contract: every assignment ParseExplicit
// accepts renders to a text that parses back to the same placement.
// scenario.Spec.Normalized relies on it to give each placement one canonical
// spelling. The seed corpus lives in testdata/fuzz; plain `go test` replays
// it.
func FuzzParseExplicit(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseExplicit(s)
		if err != nil {
			return
		}
		text := e.String()
		back, err := ParseExplicit(text)
		if err != nil {
			t.Fatalf("ParseExplicit(%q) = %v renders as %q, which does not parse: %v", s, e.Assign, text, err)
		}
		if !slices.Equal(back.Assign, e.Assign) {
			t.Fatalf("ParseExplicit(%q) = %v renders as %q, which parses to %v", s, e.Assign, text, back.Assign)
		}
	})
}
