package routing

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// This file holds a workspace's Team batches (see DeltaWorkspace) to the
// one-goroutine run: the same plans and counters at every GOMAXPROCS, and
// no allocation once a helper has joined.

// setProcs sets GOMAXPROCS for the rest of the test and restores it after.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// lockstepProcs drives one incremental workspace per GOMAXPROCS setting in
// procs over the same trajectory, each chaining its own prev tables, and
// asserts after every round that each plan (assertPlansIdentical) and each
// workspace's DeltaStats equal those of the first setting. step applies
// round's change to state before the workspaces recompute it.
func lockstepProcs(t *testing.T, procs []int, alg Algorithm, state *SystemState, dests map[app.ModuleID][]topology.NodeID, rounds int, step func(round int)) []*DeltaWorkspace {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	ws := make([]*DeltaWorkspace, len(procs))
	prev := make([]*Tables, len(procs))
	plans := make([]*Plan, len(procs))
	for x := range ws {
		ws[x] = NewDeltaWorkspace()
	}
	for round := 0; round < rounds; round++ {
		step(round)
		for x, p := range procs {
			runtime.GOMAXPROCS(p)
			plans[x] = ws[x].ComputeInto(alg, state, dests, prev[x])
			prev[x] = plans[x].Tables
		}
		runtime.GOMAXPROCS(old)
		for x := 1; x < len(procs); x++ {
			assertPlansIdentical(t, plans[x], plans[0])
			if got, want := ws[x].Stats(), ws[0].Stats(); got != want {
				t.Fatalf("round %d: stats at GOMAXPROCS %d = %+v, at GOMAXPROCS %d %+v", round, procs[x], got, procs[0], want)
			}
		}
	}
	return ws
}

// assertHelped fails unless a helper joined a batch of one of ws, so that
// a comparison across GOMAXPROCS settings compared the Team path too.
func assertHelped(t *testing.T, ws []*DeltaWorkspace) {
	t.Helper()
	for _, dw := range ws {
		if dw.handoffs > 0 {
			return
		}
	}
	t.Fatal("no helper joined any batch above GOMAXPROCS 1")
}

// TestRepairSameAtEveryGOMAXPROCS runs TestDeltaMatchesFullRecompute's
// 12x12 and 16x16 trajectories, and a 16x16 one with drains, a death, a
// revival and a link that drops and heals, at GOMAXPROCS 1, 2 and 4. The
// 16x16 mesh is above parallelMinNodes, so its batches run on the Team
// wherever a helper is idle; 12x12 is below and runs them on the caller.
func TestRepairSameAtEveryGOMAXPROCS(t *testing.T) {
	procs := []int{1, 2, 4}
	for _, meshSize := range []int{12, 16} {
		for _, alg := range []Algorithm{SDR{}, NewEAR()} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, alg.Name()), func(t *testing.T) {
				state, dests, step := driftTrajectory(t, meshSize, alg)
				ws := lockstepProcs(t, procs, alg, state, dests, driftRounds(meshSize), step)
				if meshSize == 16 {
					assertHelped(t, ws[1:])
					if alg.NeedsBatteryInfo() && ws[0].Stats().Incremental == 0 {
						t.Fatalf("the trajectory never repaired: %+v", ws[0].Stats())
					}
				}
			})
		}
	}

	t.Run("16x16/drain-death-link", func(t *testing.T) {
		mesh := topology.MustMesh(16, 16, topology.DefaultSpacingCM)
		g := mesh.Graph.Clone()
		state := fullState(g, 8)
		const a, b, dead = 100, 101, 170
		l, ok := g.Link(a, b)
		if !ok {
			t.Fatalf("no link %d-%d", a, b)
		}
		step := func(round int) {
			for d := 0; d < 1+round%3; d++ {
				st := &state.Status[(round*37+d*11)%len(state.Status)]
				st.BatteryLevel = (st.BatteryLevel + 7) % 8
			}
			var err error
			switch round {
			case 3:
				state.Status[dead].Alive = false
			case 5:
				err = g.RemoveBiLink(a, b)
				state.TopologyEpoch++
			case 8:
				err = g.AddBiLink(a, b, l.LengthCM)
				state.TopologyEpoch++
			case 10:
				state.Status[dead].Alive = true
			case 11:
				state.Status[a].Deadlocked = true
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var alg Algorithm = NewEAR()
		ws := lockstepProcs(t, procs, alg, state, checkerboardDests(g), 14, step)
		assertHelped(t, ws[1:])
		if s := ws[0].Stats(); s.Incremental < 8 || s.Full < 3 {
			t.Fatalf("stats %+v: want the death and revival as full passes and most rounds repaired", s)
		}
	})
}
