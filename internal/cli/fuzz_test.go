package cli

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseInts checks that every list ParseInts accepts, joined back with
// commas, parses to the same integers. The seed corpus lives in
// testdata/fuzz; plain `go test` replays it.
func FuzzParseInts(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ints, err := ParseInts(s, "value")
		if err != nil {
			return
		}
		parts := make([]string, len(ints))
		for i, v := range ints {
			parts[i] = strconv.Itoa(v)
		}
		text := strings.Join(parts, ",")
		back, err := ParseInts(text, "value")
		if err != nil {
			t.Fatalf("ParseInts(%q) = %v joins as %q, which does not parse: %v", s, ints, text, err)
		}
		if !slices.Equal(back, ints) {
			t.Fatalf("ParseInts(%q) = %v joins as %q, which parses to %v", s, ints, text, back)
		}
	})
}
