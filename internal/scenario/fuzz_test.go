package scenario

import (
	"bytes"
	"testing"
)

// FuzzParseSpecJSON checks the canonical encoding on client-supplied JSON:
// for every spec ParseSpecJSON accepts and Normalized can canonicalise, the
// canonical JSON is itself a spec document whose canonical form is the same
// bytes, and whose fingerprint is the same cache key. It also checks that a
// fingerprint implies a runnable spec: Strategy builds every spec that
// canonicalises (up to 8x8, to keep each input fast), so etserve can admit a
// spec by fingerprinting it. The seed corpus lives in testdata/fuzz; plain
// `go test` replays it.
func FuzzParseSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpecJSON(data)
		if err != nil {
			return
		}
		canon, err := sp.CanonicalJSON()
		if err != nil {
			return
		}
		if sp.Mesh <= 8 {
			if _, err := sp.Strategy(); err != nil {
				t.Fatalf("%s canonicalises to %s, but Strategy rejects it: %v", data, canon, err)
			}
		}
		back, err := ParseSpecJSON(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical form %s does not canonicalise: %v", canon, err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonicalising is not idempotent:\n%s\n%s", canon, again)
		}
		want, err := sp.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fingerprint of %s changed after re-parsing its canonical form: %s, want %s", canon, got, want)
		}
	})
}
