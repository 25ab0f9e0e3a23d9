package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite "+resultsFile+" from the current results")

// resultsFile pins every registered scenario's result: one "hash  name" line
// each, the SHA-256 of json.Marshal(sim.Result), sorted by name.
const resultsFile = "testdata/results.sha256"

// TestResultsPinned runs every registered scenario (big-mesh-64 aside, for
// time) and compares the SHA-256 of its marshalled result with the pin file,
// so a change that means to keep every output byte shows here when it does
// not. A scenario without a line fails, and so does a line without a
// scenario. Run with -update to rewrite the file after a change that means to
// move results.
func TestResultsPinned(t *testing.T) {
	var names, got []string
	hashes := map[string]string{}
	for _, sp := range scenario.All() {
		if sp.Name == "big-mesh-64" {
			continue
		}
		b, err := json.Marshal(simulate(t, sp))
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		sum := sha256.Sum256(b)
		hashes[sp.Name] = hex.EncodeToString(sum[:])
		names = append(names, sp.Name)
		got = append(got, hashes[sp.Name]+"  "+sp.Name)
	}
	if *update {
		if err := os.WriteFile(resultsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	pinned, err := readPins(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		want, ok := pinned[name]
		switch {
		case !ok:
			t.Errorf("%s: registered, but %s has no line for it", name, resultsFile)
		case hashes[name] != want:
			t.Errorf("%s: result hash %s, pinned %s", name, hashes[name], want)
		}
		delete(pinned, name)
	}
	for name := range pinned {
		t.Errorf("%s: pinned, but no such scenario is registered", name)
	}
	if t.Failed() {
		t.Log("the pins were recorded on amd64 with FMA; math's transcendentals round " +
			"differently without it (ROADMAP item 9). After a change that means to move " +
			"results, rerun with -update and review the diff")
	}
}

// readPins parses a "hash  name" file into name → hash.
func readPins(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		hash, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(hash) != 2*sha256.Size || name == "" {
			return nil, fmt.Errorf("%s:%d: want \"hash  name\", got %q", path, line, sc.Text())
		}
		if _, dup := pins[name]; dup {
			return nil, fmt.Errorf("%s:%d: second line for %s", path, line, name)
		}
		pins[name] = hash
	}
	return pins, sc.Err()
}
