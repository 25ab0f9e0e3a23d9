package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/controlplane"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/serve/store"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// capture wraps a run's routing algorithm. It times phase 1 (WeightsInto)
// live and keeps a copy of the state of every recompute, which is the only
// caller of WeightsInto, for the offline replay of phases 2 and 3.
type capture struct {
	routing.Algorithm
	weights time.Duration
	calls   []capturedCall
	// graphs keeps one copy of each graph per topology epoch: fault
	// injection edits the engine's graph in place, and the replay must see
	// the links of the moment.
	graphs map[*topology.Graph]graphAt
}

type capturedCall struct {
	// key is the plane's state buffer, one per region of the sharded plane.
	key   *routing.SystemState
	state *routing.SystemState
}

type graphAt struct {
	epoch uint64
	g     *topology.Graph
}

func newCapture(alg routing.Algorithm) *capture {
	return &capture{Algorithm: alg, graphs: map[*topology.Graph]graphAt{}}
}

// WeightsInto implements routing.Algorithm.
func (c *capture) WeightsInto(w *routing.Matrix, st *routing.SystemState) {
	start := time.Now()
	c.Algorithm.WeightsInto(w, st)
	c.weights += time.Since(start)
	snap := st.Clone()
	g, ok := c.graphs[st.Graph]
	if !ok || g.epoch != st.TopologyEpoch {
		g = graphAt{epoch: st.TopologyEpoch, g: st.Graph.Clone()}
		c.graphs[st.Graph] = g
	}
	snap.Graph = g.g
	c.calls = append(c.calls, capturedCall{key: st, state: snap})
}

// replayTotals are the routing phases of one run, re-executed offline.
type replayTotals struct {
	// total is every DeltaWorkspace.ComputeInto, split into the recomputes
	// that took the full pass and those that repaired.
	total, full, repair time.Duration
	// allpairs is ShortestPaths.ComputeFrom alone on the full-pass
	// recomputes; tables is BuildTables alone on every recompute.
	allpairs, tables time.Duration
	nFull, nRepair   int
	dirty, affected  int
}

// replay re-runs the captured recomputes through fresh delta workspaces —
// one per region for the sharded plane — in the live order, classifying each
// by the workspace's counters.
func replay(alg routing.Algorithm, mode routing.RecomputeMode, calls []capturedCall, dests map[app.ModuleID][]topology.NodeID, perRegion bool) replayTotals {
	type lane struct {
		ws   *routing.DeltaWorkspace
		prev *routing.Tables
	}
	var (
		r     replayTotals
		lanes = map[*routing.SystemState]*lane{}
		order []*lane
		w     routing.Matrix
		sp    routing.ShortestPaths
	)
	for _, c := range calls {
		var key *routing.SystemState
		if perRegion {
			key = c.key
		}
		l := lanes[key]
		if l == nil {
			l = &lane{ws: routing.NewDeltaWorkspace()}
			l.ws.SetMode(mode)
			lanes[key] = l
			order = append(order, l)
		}
		before := l.ws.Stats()
		start := time.Now()
		plan := l.ws.ComputeInto(alg, c.state, dests, l.prev)
		d := time.Since(start)
		r.total += d
		if l.ws.Stats().Full > before.Full {
			r.full += d
			r.nFull++
			alg.WeightsInto(&w, c.state)
			start = time.Now()
			sp.ComputeFrom(&w)
			r.allpairs += time.Since(start)
		} else {
			r.repair += d
			r.nRepair++
		}
		start = time.Now()
		routing.BuildTables(c.state, plan.Paths, dests, l.prev)
		r.tables += time.Since(start)
		l.prev = plan.Tables
	}
	for _, l := range order {
		st := l.ws.Stats()
		r.dirty += st.DirtyVertices
		r.affected += st.AffectedPairs
	}
	return r
}

// probeTotals sums the probe runs of one traced pass.
type probeTotals struct {
	untraced, traced time.Duration
	frames           int64
	mallocs          uint64
	phases           [sim.PhaseCount]time.Duration
	spans            int
	recomputes       int
	full, repair     int
	injected         int
	recovered        int
	weights          time.Duration
	replay           replayTotals
}

// probe runs one spec untraced and then traced — phase spans plus the
// routing capture — checks that both give the same bytes, replays the
// traced run's routing, and returns the untraced result JSON.
func (t *probeTotals) probe(e *env, sp scenario.Spec, traceFile string) ([]byte, error) {
	strategy, err := sp.Strategy()
	if err != nil {
		return nil, err
	}
	cfg, err := strategy.Config()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := s.Run()
	t.untraced += time.Since(start)
	runtime.ReadMemStats(&after)
	t.mallocs += after.Mallocs - before.Mallocs
	want, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}

	// The wrapper goes into the materialised config, not through
	// core.WithAlgorithm, so core.Strategy.Config still sees the spec's own
	// algorithm when it derives the battery levels.
	cfg, err = strategy.Config()
	if err != nil {
		return nil, err
	}
	c := newCapture(cfg.Algorithm)
	rec := &trace.Spans{}
	cfg.Algorithm = c
	cfg.Observers = append(slices.Clip(cfg.Observers), rec)
	s, err = sim.New(cfg)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	tres := s.Run()
	t.traced += time.Since(start)
	got, err := json.Marshal(tres)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		e.checks.failf("%s: the traced run's result differs from the untraced run's", sp.Label())
	}
	if err := writeTrace(rec, traceFile); err != nil {
		return nil, err
	}

	for _, span := range rec.Spans() {
		for p := range t.phases {
			if span.Name == sim.Phase(p).String() {
				t.phases[p] += time.Duration(span.DurationNS)
			}
		}
	}
	t.spans += rec.Len()
	t.frames += tres.Frames
	t.recomputes += tres.RoutingRecomputes
	t.full += tres.FullRecomputes
	t.repair += tres.IncrementalRecomputes
	t.injected += tres.FaultsInjected
	t.recovered += tres.FaultsRecovered
	t.weights += c.weights

	mode, err := controlplane.ParseRecompute(sp.Recompute)
	if err != nil {
		return nil, err
	}
	dests := make(map[app.ModuleID][]topology.NodeID, len(cfg.App.Modules))
	for _, m := range cfg.App.Modules {
		dests[m.ID] = cfg.Mapping.NodesFor(m.ID)
	}
	perRegion := tres.ControlPlane == string(controlplane.KindSharded)
	r := replay(c.Algorithm, mode, c.calls, dests, perRegion)
	if r.nFull != tres.FullRecomputes || r.nRepair != tres.IncrementalRecomputes {
		e.checks.failf("%s: replayed recompute split %d/%d, live split %d/%d",
			sp.Label(), r.nFull, r.nRepair, tres.FullRecomputes, tres.IncrementalRecomputes)
	}
	t.replay.add(r)
	return want, nil
}

func (r *replayTotals) add(o replayTotals) {
	r.total += o.total
	r.full += o.full
	r.repair += o.repair
	r.allpairs += o.allpairs
	r.tables += o.tables
	r.nFull += o.nFull
	r.nRepair += o.nRepair
	r.dirty += o.dirty
	r.affected += o.affected
}

// probeLayers is the traced pass every workload shares: it probes the
// workload's specs and times the set-up path and the result store on them.
func probeLayers(e *env, name string, specs []scenario.Spec, v values) error {
	var t probeTotals
	bodies := make([][]byte, 0, len(specs))
	for i, sp := range specs {
		body, err := t.probe(e, sp, filepath.Join(e.dir, "traces", fmt.Sprintf("%s-probe%d.json", name, i)))
		if err != nil {
			return fmt.Errorf("probe %s: %w", sp.Label(), err)
		}
		bodies = append(bodies, body)
	}
	if t.frames == 0 || t.untraced == 0 {
		return fmt.Errorf("the probes simulated nothing")
	}
	var phaseSum, control time.Duration
	for p, d := range t.phases {
		phaseSum += d
		switch sim.Phase(p) {
		case sim.PhaseControlFull, sim.PhaseControlIncremental, sim.PhaseControlIdle:
			control += d
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	v["sim.frames"] = float64(t.frames)
	v["sim.run_ms"] = ms(t.untraced)
	v["sim.snapshot_s"] = t.phases[sim.PhaseSnapshot].Seconds()
	v["sim.schedule_s"] = t.phases[sim.PhaseSchedule].Seconds()
	v["sim.control_full_s"] = t.phases[sim.PhaseControlFull].Seconds()
	v["sim.control_incremental_s"] = t.phases[sim.PhaseControlIncremental].Seconds()
	v["sim.control_idle_s"] = t.phases[sim.PhaseControlIdle].Seconds()
	v["sim.faults_share"] = t.phases[sim.PhaseFaults].Seconds() / phaseSum.Seconds()
	v["sim.control_share"] = control.Seconds() / phaseSum.Seconds()
	v["sim.phase_coverage"] = phaseSum.Seconds() / t.traced.Seconds()
	v["sim.allocs_per_frame"] = float64(t.mallocs) / float64(t.frames)
	v["controlplane.recomputes"] = float64(t.recomputes)
	v["controlplane.full"] = float64(t.full)
	v["controlplane.incremental"] = float64(t.repair)
	v["controlplane.recompute_ratio"] = float64(t.recomputes) / float64(t.frames)
	v["routing.weights_ms"] = ms(t.weights)
	v["routing.replay_ms"] = ms(t.replay.total)
	v["routing.full_ms"] = ms(t.replay.full)
	v["routing.repair_ms"] = ms(t.replay.repair)
	v["routing.allpairs_full_ms"] = ms(t.replay.allpairs)
	v["routing.tables_ms"] = ms(t.replay.tables)
	if t.replay.nRepair > 0 {
		v["routing.dirty_per_repair"] = float64(t.replay.dirty) / float64(t.replay.nRepair)
		v["routing.affected_per_repair"] = float64(t.replay.affected) / float64(t.replay.nRepair)
	} else {
		v["routing.dirty_per_repair"], v["routing.affected_per_repair"] = 0, 0
	}
	v["routing.repair_ratio"] = float64(t.replay.nRepair) / float64(t.replay.nFull+t.replay.nRepair)
	v["routing.replay_coverage"] = t.replay.total.Seconds() / t.untraced.Seconds()
	v["faults.injected"] = float64(t.injected)
	v["faults.recovered"] = float64(t.recovered)
	v["trace.overhead_pct"] = 100 * (t.traced.Seconds()/t.untraced.Seconds() - 1)
	v["trace.spans"] = float64(t.spans)

	if err := setupCosts(specs, v); err != nil {
		return err
	}
	return storeCosts(e.dir, bodies, v)
}

// minCostTime is how long the set-up path and the store are timed for, so
// that microsecond operations are averaged over many calls.
const minCostTime = 50 * time.Millisecond

// setupCosts times the set-up path on the probe specs: Spec.Strategy plus
// Strategy.Config, sim.New, and the service's spec handling
// (ParseSpecJSON, Strategy, Fingerprint) on each spec's canonical JSON.
func setupCosts(specs []scenario.Spec, v values) error {
	encoded := make([][]byte, len(specs))
	for i, sp := range specs {
		enc, err := sp.CanonicalJSON()
		if err != nil {
			return err
		}
		encoded[i] = enc
	}
	var strategy, newSim, spec time.Duration
	calls := 0
	for start := time.Now(); calls == 0 || time.Since(start) < minCostTime; {
		for i, sp := range specs {
			t0 := time.Now()
			st, err := sp.Strategy()
			if err != nil {
				return err
			}
			cfg, err := st.Config()
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := sim.New(cfg); err != nil {
				return err
			}
			t2 := time.Now()
			parsed, err := scenario.ParseSpecJSON(encoded[i])
			if err != nil {
				return err
			}
			if _, err := parsed.Strategy(); err != nil {
				return err
			}
			if _, err := parsed.Fingerprint(); err != nil {
				return err
			}
			t3 := time.Now()
			strategy += t1.Sub(t0)
			newSim += t2.Sub(t1)
			spec += t3.Sub(t2)
			calls++
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(calls) }
	v["scenario.strategy_us"] = us(strategy)
	v["sim.new_us"] = us(newSim)
	v["serve.spec_us"] = us(spec)
	return nil
}

// storeCosts times a disk-backed result store on the probe results: Put of
// new keys (memory plus a file each) and Get of resident ones.
func storeCosts(dir string, bodies [][]byte, v values) error {
	const keys = 64
	d, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(d)
	st, err := store.New(0, store.WithDisk(d))
	if err != nil {
		return err
	}
	ks := make([]store.Key, keys)
	for i := range ks {
		ks[i] = store.Key(sha256.Sum256(fmt.Appendf(nil, "etperf store probe %d", i)))
	}
	start := time.Now()
	for i, k := range ks {
		if err := st.Put(k, bodies[i%len(bodies)]); err != nil {
			return err
		}
	}
	v["store.put_us"] = float64(time.Since(start)) / float64(time.Microsecond) / keys
	gets := 0
	start = time.Now()
	for gets == 0 || time.Since(start) < minCostTime {
		for _, k := range ks {
			if _, ok := st.Get(k); !ok {
				return fmt.Errorf("store probe: key %s missing", k)
			}
		}
		gets += keys
	}
	v["store.get_us"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(gets)
	return nil
}

// writeTrace writes a recorder's Chrome trace, creating its directory.
func writeTrace(rec *trace.Spans, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "etperf: trace written to", path)
	return nil
}
