package sim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite "+resultsFile+" from the current results")

// resultsFile pins every registered scenario's result: one "hash  name" line
// each, the SHA-256 of json.Marshal(sim.Result), sorted by name.
const resultsFile = "testdata/results.sha256"

// pinnedScenarios is every registered scenario but big-mesh-64, which is
// left out for its run time.
func pinnedScenarios() []scenario.Spec {
	var specs []scenario.Spec
	for _, sp := range scenario.All() {
		if sp.Name != "big-mesh-64" {
			specs = append(specs, sp)
		}
	}
	return specs
}

// resultJSON is the byte form every pin and self-diff compares.
func resultJSON(t *testing.T, res sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameJSON fails the test unless got and want marshal to the same bytes, and
// shows where they first differ.
func sameJSON(t *testing.T, what string, got, want sim.Result) {
	t.Helper()
	g, w := resultJSON(t, got), resultJSON(t, want)
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(i-60, 0)
	t.Errorf("%s: result JSON differs from byte %d:\ngot  …%s\nwant …%s",
		what, i, g[from:min(i+60, len(g))], w[from:min(i+60, len(w))])
}

// collectors returns one of each trace collector a program path attaches to
// a run: etsim's -trace timeline and -spans recorder (a PhaseObserver, so the
// engine's span clock runs), the smartshirt example's latency histogram, the
// degradation sweep's aggregator, and etserve's engine metrics and progress
// stream.
func collectors() []sim.Observer {
	return []sim.Observer{
		&trace.Timeline{}, &trace.Spans{}, &trace.LatencyHistogram{}, &trace.Degradation{},
		trace.EngineMetrics{}, &trace.Wire{Sink: func(trace.WireEvent) {}},
	}
}

// TestResultsPinned runs every pinned scenario once and checks that run's
// result bytes in three subtests:
//   - pinned: the SHA-256 matches the scenario's line in the pin file, so a
//     change that means to keep every output byte shows here when it does
//     not. A scenario without a line fails, and so does a line without a
//     scenario.
//   - observers: a run with every trace collector attached gives the same
//     bytes; observers are outbound only.
//   - recompute: a run with Recompute "full" gives the same bytes once the
//     two fields that count which path each recompute took are cleared, and
//     big-mesh-16 actually repairs incrementally.
//
// Run with -update to rewrite the pin file after a change that means to move
// results.
func TestResultsPinned(t *testing.T) {
	var pins map[string]string
	if !*update {
		var err error
		if pins, err = readPins(resultsFile); err != nil {
			t.Fatal(err)
		}
	}
	specs := pinnedScenarios()
	registered := map[string]bool{}
	var lines []string
	moved := false
	for _, sp := range specs {
		registered[sp.Name] = true
		t.Run(sp.Name, func(t *testing.T) {
			res := simulate(t, sp)
			sum := sha256.Sum256(resultJSON(t, res))
			hash := hex.EncodeToString(sum[:])
			lines = append(lines, hash+"  "+sp.Name)

			t.Run("pinned", func(t *testing.T) {
				if *update {
					t.Skip("-update rewrites the pins")
				}
				switch want, ok := pins[sp.Name]; {
				case !ok:
					t.Errorf("registered, but %s has no line for it", resultsFile)
				case hash != want:
					t.Errorf("result hash %s, pinned %s", hash, want)
					moved = true
				}
			})
			t.Run("observers", func(t *testing.T) {
				sameJSON(t, "with every trace collector attached", simulate(t, sp, collectors()...), res)
			})
			t.Run("recompute", func(t *testing.T) {
				full := sp
				full.Recompute = "full"
				got, want := simulate(t, full), res
				got.FullRecomputes, got.IncrementalRecomputes = 0, 0
				want.FullRecomputes, want.IncrementalRecomputes = 0, 0
				sameJSON(t, "full recompute against incremental", got, want)
				if sp.Name == "big-mesh-16" && res.IncrementalRecomputes == 0 {
					t.Errorf("no incremental repair among %d recomputes", res.FullRecomputes)
				}
			})
		})
	}
	for name := range pins {
		if !registered[name] {
			t.Errorf("%s: pinned, but no such scenario is registered", name)
		}
	}
	if moved {
		t.Log("the pins were recorded on amd64 with FMA; math's transcendentals round " +
			"differently without it (ROADMAP item 9). After a change that means to move " +
			"results, rerun with -update and review the diff")
	}
	if *update {
		if len(lines) != len(specs) {
			t.Fatalf("-update ran %d of %d scenarios; run it without a subtest filter", len(lines), len(specs))
		}
		if err := os.WriteFile(resultsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
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
