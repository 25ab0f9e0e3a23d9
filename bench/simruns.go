package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// chaosSchedules is how many fault schedules one chaos-8x8 run rotates
// through. Runs of different schedules differ by up to a fifth in length, so
// a run's median rests on several of them rather than on one.
const chaosSchedules = 8

// simRuns runs whole simulations back to back, one operation per
// Spec.Simulate, rotating through specs.
type simRuns struct {
	e     *env
	name  string
	specs []scenario.Spec
	// warm is the set-up's warm-up run.
	warm scenario.Spec
	// golden holds the SHA-256 of each spec's result JSON; without goldens
	// every repeat of a spec must match its first run instead.
	golden []string
	seen   []string
}

// newMesh16 is big-mesh-16 (or its n×n variant): 256 nodes for 200 frames,
// where nearly every recompute is an incremental repair. The input is
// deterministic, so the seed is ignored.
func newMesh16(e *env, n int) (*simRuns, error) {
	sp, ok := scenario.Lookup("big-mesh-16")
	if !ok {
		return nil, fmt.Errorf("scenario big-mesh-16 is not registered")
	}
	sp.Mesh = n
	warm := sp
	warm.MaxCycles = sp.MaxCycles / 8
	r := &simRuns{e: e, name: "mesh-16", specs: []scenario.Spec{sp}, warm: warm}
	if n == 16 {
		r.golden = goldenLines(goldenMesh16)
	}
	return r, nil
}

// newChaos is chaos-storm — sharded 8×8 under link, crash, wear and kill
// faults — with the fault schedules chaosSeeds derives from the workload
// seed.
func newChaos(e *env) (*simRuns, error) {
	base, ok := scenario.Lookup("chaos-storm")
	if !ok {
		return nil, fmt.Errorf("scenario chaos-storm is not registered")
	}
	fsp, err := faults.ParseSpec(base.Faults)
	if err != nil {
		return nil, err
	}
	r := &simRuns{e: e, name: "chaos-8x8"}
	for _, s := range chaosSeeds(e.seed) {
		fsp.Seed = s
		sp := base
		sp.Faults = fsp.String()
		r.specs = append(r.specs, sp)
	}
	r.warm = r.specs[0]
	if e.seed == defaultSeed {
		r.golden = goldenLines(goldenChaos)
	}
	return r, nil
}

// chaosSeeds are the fault-schedule seeds of a workload seed: disjoint runs
// of chaosSchedules seeds, where the default seed starts at 1, the
// registered chaos-storm schedule.
func chaosSeeds(seed uint64) []uint64 {
	out := make([]uint64, chaosSchedules)
	for i := range out {
		out[i] = 1 + (seed-1)*chaosSchedules + uint64(i)
	}
	return out
}

func (r *simRuns) setup() error {
	for _, sp := range r.specs {
		if _, err := sp.Strategy(); err != nil {
			return err
		}
	}
	r.seen = make([]string, len(r.specs))
	_, err := r.warm.Simulate()
	return err
}

func (r *simRuns) measure(d time.Duration, _ bool, w *window) error {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		i := len(w.lat)
		k := i % len(r.specs)
		t0 := time.Now()
		res, err := r.specs[k].Simulate()
		w.lat = append(w.lat, time.Since(t0))
		if err != nil {
			w.failed++
			r.e.checks.failf("%s run %d: %v", r.name, i, err)
			continue
		}
		if !r.agree(k, res) {
			w.failed++
		}
	}
	w.elapsed += time.Since(start)
	return nil
}

// agree checks a result of spec k against its golden digest, or against
// the first run of spec k.
func (r *simRuns) agree(k int, res any) bool {
	b, err := json.Marshal(res)
	if err != nil {
		r.e.checks.failf("%s: encoding result: %v", r.name, err)
		return false
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	want := r.seen[k]
	if r.golden != nil {
		want = r.golden[k]
	}
	if want == "" {
		r.seen[k] = got
		return true
	}
	if got != want {
		r.e.checks.failf("%s spec %d (%s): result digest %s, want %s", r.name, k, r.specs[k].Faults, got, want)
		return false
	}
	return true
}

func (r *simRuns) probeSpecs() []scenario.Spec { return r.specs[:1] }

func (r *simRuns) layers(values) error { return nil }

func (r *simRuns) close() {}

// goldenLines splits a golden file into its non-empty lines.
func goldenLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}
