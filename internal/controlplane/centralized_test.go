package controlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/routing"
	"repro/internal/tdma"
	"repro/internal/topology"
)

// This file pins the default control plane — the one-region Sharded plane
// that New builds for the zero Config — to the pre-refactor engine behaviour:
// refEngineControl below is a faithful transcription of the controller
// section of the old sim.processFrame (deadlock counting, change detection,
// energy accounting, pool serving, recompute, snapshot adoption), and the
// equivalence tests assert both produce identical frame reports and identical
// routing tables over randomized snapshot sequences — including the
// finite-battery death path of Sec 7.3 and a kill window.

// refEngineControl is the pre-refactor engine's controller logic, kept
// verbatim (the engine held pool/ws/tables/lastSnapshot as its own fields and
// ran this sequence inline in processFrame). It keeps a pointer to the last
// recomputed snapshot, so callers hand it a snapshot they never modify again.
// Its workspace is pinned to the full Floyd–Warshall pass, so the plane's
// incremental repairs are compared against full recomputes.
type refEngineControl struct {
	t      *testing.T
	deps   Deps
	pool   *tdma.Pool
	finite bool

	ws     *routing.DeltaWorkspace
	tables *routing.Tables
	last   *routing.SystemState
}

func newRefEngineControl(t *testing.T, deps Deps) *refEngineControl {
	t.Helper()
	pool, err := tdma.NewPool(deps.Controllers, deps.ControllerBattery)
	if err != nil {
		t.Fatal(err)
	}
	ws := routing.NewDeltaWorkspace()
	ws.SetMode(routing.RecomputeFull)
	return &refEngineControl{
		t: t, deps: deps,
		pool: pool, finite: deps.ControllerBattery != nil, ws: ws,
	}
}

func (r *refEngineControl) frame(aliveNodes int, snapshot *routing.SystemState) FrameReport {
	var rep FrameReport
	for id, st := range snapshot.Status {
		if st.Deadlocked && (r.last == nil || !r.last.Status[id].Deadlocked) {
			rep.NewDeadlockReports++
		}
	}
	changed := r.stateChanged(snapshot)
	k := r.deps.Graph.NodeCount()
	rep.ControllerPJ = tdma.ControllerFrameEnergyPJ(k, changed)
	if changed {
		rep.DownloadPJ = tdma.DownloadEnergyPerNodePJ() * float64(aliveNodes)
	}
	if err := r.pool.ServeFrame(rep.ControllerPJ + rep.DownloadPJ); err != nil {
		if errors.Is(err, tdma.ErrAllControllersDead) && r.finite {
			rep.ControllersDead = true
			return rep
		}
	}
	r.pool.RestAll(tdma.FramePeriodCycles)
	if changed || r.tables == nil {
		plan := r.ws.ComputeInto(r.deps.Algorithm, snapshot, r.deps.Destinations, r.tables)
		if s := r.ws.Stats(); s.Incremental != 0 {
			r.t.Fatalf("reference workspace repaired %d recomputes, want full passes only", s.Incremental)
		}
		r.tables = plan.Tables
		r.last = snapshot
		rep.Recomputed = true
	}
	return rep
}

func (r *refEngineControl) stateChanged(snapshot *routing.SystemState) bool {
	if r.last == nil || len(r.last.Status) != len(snapshot.Status) {
		return true
	}
	needLevels := r.deps.Algorithm.NeedsBatteryInfo()
	for id, st := range snapshot.Status {
		prev := r.last.Status[id]
		if st.Alive != prev.Alive || st.Deadlocked != prev.Deadlocked {
			return true
		}
		if needLevels && st.BatteryLevel != prev.BatteryLevel {
			return true
		}
	}
	return false
}

// compareReports asserts two frame reports are identical (energies computed
// through the same call sequence must match bitwise).
func compareReports(t *testing.T, frame int64, got, want FrameReport) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame %d: report = %+v, want %+v", frame, got, want)
	}
}

// recording wraps factory so that *built receives every battery it builds,
// in build order: the tests read the controller batteries through it. A nil
// factory (infinite-energy controllers) stays nil.
func recording(factory battery.Factory, built *[]battery.Battery) battery.Factory {
	if factory == nil {
		return nil
	}
	return func() battery.Battery {
		b := factory()
		*built = append(*built, b)
		return b
	}
}

// deliveredPJ sums the energy the batteries have delivered.
func deliveredPJ(bs []battery.Battery) float64 {
	var sum float64
	for _, b := range bs {
		sum += b.DeliveredPJ()
	}
	return sum
}

// compareTables asserts the control plane serves exactly the reference's
// tables: same per-node presence, next hops and module routes.
func compareTables(t *testing.T, frame int64, deps Deps, cp *Sharded, tables *routing.Tables) {
	t.Helper()
	k := deps.Graph.NodeCount()
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		gotOK := cp.ownerOf(node).tables.Has(node)
		wantOK := tables.Has(node)
		if gotOK != wantOK {
			t.Fatalf("frame %d: table of %d present = %v, want %v", frame, n, gotOK, wantOK)
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			if got, want := cp.NextHop(node, dest), tables.NextHop(node, dest); got != want {
				t.Fatalf("frame %d: NextHop(%d,%d) = %d, want %d", frame, n, d, got, want)
			}
		}
		for m := range deps.Destinations {
			got, gotOK := cp.RouteTo(node, m)
			want, wantOK := tables.RouteTo(node, m)
			if gotOK != wantOK || got != want {
				t.Fatalf("frame %d: RouteTo(%d,%d) = %+v,%v, want %+v,%v", frame, n, m, got, gotOK, want, wantOK)
			}
		}
	}
}

// newDefaultPlane builds the plane New selects for the zero Config.
func newDefaultPlane(t *testing.T, deps Deps) *Sharded {
	t.Helper()
	cp, err := New(Config{}, deps)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// driveSequence evolves a master status vector like the engine's upload phase
// would: battery drift, occasional deaths and deadlock flags, reported into
// one reused snapshot buffer exactly as sim.processFrame hands it to the
// plane. The reference gets a clone, since it keeps a pointer to it.
func driveSequence(t *testing.T, deps Deps, cp *Sharded, ref *refEngineControl, frames int, seed int64) {
	t.Helper()
	const levels = 8
	k := deps.Graph.NodeCount()
	rng := rand.New(rand.NewSource(seed))
	master := make([]routing.NodeStatus, k)
	for i := range master {
		master[i] = routing.NodeStatus{Alive: true, BatteryLevel: levels - 1}
	}
	cur := fullState(deps.Graph, levels)
	var spentPJ float64
	for frame := int64(1); frame <= int64(frames); frame++ {
		copy(cur.Status, master)
		alive := aliveCount(cur)

		rep := cp.Frame(frame, cur)
		refRep := ref.frame(alive, cur.Clone())
		compareReports(t, frame, rep, refRep)
		if rep.ControllersDead {
			if !cp.shards[0].dead || !cp.shards[0].pool.AllDead() {
				t.Fatalf("frame %d: dead plane's region is not battery-dead", frame)
			}
			return
		}
		compareTables(t, frame, deps, cp, ref.tables)
		spentPJ += rep.ControllerPJ + rep.DownloadPJ
		if cp.RecomputeCount(0) != 0 && spentPJ <= 0 {
			t.Fatalf("frame %d: recomputed but the controllers spent %g pJ", frame, spentPJ)
		}

		// Evolve the master state: drift some batteries, occasionally kill a
		// node or raise/clear a deadlock flag; some frames change nothing, so
		// the no-recompute path is exercised too.
		if rng.Float64() < 0.7 {
			for i := range master {
				if !master[i].Alive {
					continue
				}
				if rng.Float64() < 0.3 && master[i].BatteryLevel > 0 {
					master[i].BatteryLevel--
				}
				if rng.Float64() < 0.03 {
					master[i].Alive = false
				}
				master[i].Deadlocked = rng.Float64() < 0.1
			}
		}
	}
}

// TestCentralizedMatchesEngineReference is the extraction pin: over meshes
// 4-8, both algorithms and both controller-battery regimes, the default plane
// must reproduce the pre-refactor engine logic frame by frame.
func TestCentralizedMatchesEngineReference(t *testing.T) {
	for _, meshSize := range []int{4, 6, 8} {
		for _, alg := range []routing.Algorithm{routing.SDR{}, routing.NewEAR()} {
			for _, finite := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/finite=%v", meshSize, meshSize, alg.Name(), finite)
				t.Run(name, func(t *testing.T) {
					deps := testDeps(meshSize, alg)
					deps.Controllers = 2
					if finite {
						// Small enough that the pool dies within the sequence,
						// so the ControllersDead path is compared too.
						deps.ControllerBattery = battery.IdealFactory(40 * float64(meshSize*meshSize))
					}
					driveSequence(t, deps, newDefaultPlane(t, deps), newRefEngineControl(t, deps), 40, int64(meshSize)*17+int64(len(alg.Name())))
				})
			}
		}
	}
}

// TestCentralizedKillWindow pins the default plane through a FaultRegion(0)
// window. Inside the window it reports nothing and keeps serving the
// pre-window tables; after the restore it matches the reference driven only
// on the served frames, so the first served frame catches up in one recompute
// and reports the deadlock a node raised mid-window. With finite controllers
// the pool rests through the window: it spends no energy and its batteries
// recover, ending above the reference's, which never saw the window frames.
func TestCentralizedKillWindow(t *testing.T) {
	const winOpen, winClose, frames = 6, 12, 20
	for _, finite := range []bool{false, true} {
		t.Run(fmt.Sprintf("finite=%v", finite), func(t *testing.T) {
			deps := testDeps(4, routing.NewEAR())
			deps.Controllers = 2
			if finite {
				// Thin-film cells show the rest as a voltage recovery; on the
				// 4x4 mesh they outlive the sequence.
				deps.ControllerBattery = battery.DefaultThinFilmFactory()
			}
			var planeBats, refBats []battery.Battery
			refDeps := deps
			deps.ControllerBattery = recording(deps.ControllerBattery, &planeBats)
			refDeps.ControllerBattery = recording(refDeps.ControllerBattery, &refBats)
			cp := newDefaultPlane(t, deps)
			ref := newRefEngineControl(t, refDeps)
			snap := fullState(deps.Graph, 8)
			stuck := topology.NodeID(7)
			for frame := int64(1); frame <= frames; frame++ {
				st := &snap.Status[int(frame*5)%len(snap.Status)]
				if st.BatteryLevel > 0 {
					st.BatteryLevel--
				}
				switch frame {
				case winOpen:
					cp.FaultRegion(0, true)
				case winOpen + 2:
					snap.Status[stuck].Deadlocked = true
				case winClose:
					cp.FaultRegion(0, false)
				}
				consumed := deliveredPJ(planeBats)
				rep := cp.Frame(frame, snap)
				if frame >= winOpen && frame < winClose {
					compareReports(t, frame, rep, FrameReport{})
					compareTables(t, frame, deps, cp, ref.tables)
					if got := deliveredPJ(planeBats); got != consumed {
						t.Fatalf("frame %d: pool consumed %g pJ inside the kill window", frame, got-consumed)
					}
					continue
				}
				compareReports(t, frame, rep, ref.frame(aliveCount(snap), snap.Clone()))
				if rep.ControllersDead {
					t.Fatalf("frame %d: controller pool died inside the sequence", frame)
				}
				compareTables(t, frame, deps, cp, ref.tables)
				if frame == winClose && rep.NewDeadlockReports != 1 {
					t.Fatalf("restore frame reported %d deadlocks, want the 1 raised mid-window", rep.NewDeadlockReports)
				}
			}
			if !finite {
				return
			}
			if len(planeBats) != deps.Controllers || len(refBats) != deps.Controllers {
				t.Fatalf("built %d plane and %d reference batteries, want %d each", len(planeBats), len(refBats), deps.Controllers)
			}
			if got, want := deliveredPJ(planeBats), deliveredPJ(refBats); got != want {
				t.Fatalf("pool delivered %g pJ, reference %g", got, want)
			}
			for i, refBat := range refBats {
				got, want := planeBats[i].(*battery.ThinFilm).Voltage(), refBat.(*battery.ThinFilm).Voltage()
				if got <= want {
					t.Fatalf("controller %d at %.9f V did not rest through the window (reference %.9f V)", i, got, want)
				}
			}
		})
	}
}

// TestCentralizedInfinitePoolNeverDies guards the Sec 7.1/7.2 regime: with no
// controller batteries the plane must never report ControllersDead, whatever
// the pool error path does.
func TestCentralizedInfinitePoolNeverDies(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	cp := newDefaultPlane(t, deps)
	snap := fullState(deps.Graph, 8)
	for frame := int64(1); frame <= 200; frame++ {
		// Force a recompute (and its higher energy draw) every frame.
		snap.Status[int(frame)%len(snap.Status)].BatteryLevel ^= 1
		rep := cp.Frame(frame, snap)
		if rep.ControllersDead {
			t.Fatalf("frame %d: infinite-energy pool reported dead", frame)
		}
		if !rep.Recomputed || cp.RecomputeCount(0) != int(frame) {
			t.Fatalf("frame %d: forced change did not recompute (%+v, %d recomputes)", frame, rep, cp.RecomputeCount(0))
		}
	}
	if got := cp.RecomputeCount(0); got != 200 {
		t.Fatalf("RecomputeCount = %d, want 200", got)
	}
}
