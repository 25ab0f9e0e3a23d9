package controlplane

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestParseRecompute(t *testing.T) {
	for _, tc := range []struct {
		name string
		want routing.RecomputeMode
	}{
		{"", routing.RecomputeIncremental},
		{"incremental", routing.RecomputeIncremental},
		{"full", routing.RecomputeFull},
	} {
		mode, err := ParseRecompute(tc.name)
		if err != nil || mode != tc.want {
			t.Errorf("ParseRecompute(%q) = %v, %v, want %v", tc.name, mode, err, tc.want)
		}
	}
	_, err := ParseRecompute("incrmental")
	if err == nil {
		t.Fatal("typo accepted")
	}
	for _, name := range RecomputeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("typo error %q does not list %q", err, name)
		}
	}
}

func TestConfigValidateRecompute(t *testing.T) {
	for _, name := range []string{"", "incremental", "full"} {
		cfg := Config{Recompute: name}
		if err := cfg.Validate(16); err != nil {
			t.Errorf("Validate(Recompute=%q) = %v, want nil", name, err)
		}
	}
	cfg := Config{Recompute: "eager"}
	if err := cfg.Validate(16); err == nil {
		t.Fatal("Validate accepted an unknown recompute strategy")
	}
	if _, err := New(cfg, testDeps(4, routing.NewEAR())); err == nil {
		t.Fatal("New accepted an unknown recompute strategy")
	}
}

// driveTrajectory runs the same deterministic battery-drain / death /
// deadlock trajectory against a control plane and records every per-frame
// report plus the full next-hop matrix after each frame.
func driveTrajectory(t *testing.T, cp *Sharded, meshSize, frames int) ([]FrameReport, []topology.NodeID) {
	t.Helper()
	deps := testDeps(meshSize, routing.NewEAR())
	k := deps.Graph.NodeCount()
	snap := fullState(deps.Graph, 8)
	reports := make([]FrameReport, 0, frames)
	var hops []topology.NodeID
	for f := 1; f <= frames; f++ {
		// Deterministic churn: drain a walking node every frame, kill one
		// node a third of the way in, flip a deadlock bit periodically.
		n := (f * 7) % k
		if snap.Status[n].Alive && snap.Status[n].BatteryLevel > 0 {
			snap.Status[n].BatteryLevel--
		}
		if f == frames/3 {
			snap.Status[k/2].Alive = false
		}
		if f%5 == 0 {
			snap.Status[(f*3)%k].Deadlocked = !snap.Status[(f*3)%k].Deadlocked
		}
		rep := cp.Frame(int64(f), snap)
		reports = append(reports, rep)
		for from := 0; from < k; from++ {
			for dest := 0; dest < k; dest++ {
				hops = append(hops, cp.NextHop(topology.NodeID(from), topology.NodeID(dest)))
			}
		}
	}
	return reports, hops
}

// TestRecomputeModesAreEquivalent pins the incremental dirty-set repair to
// the always-full baseline through both control planes: over a trajectory of
// drains, a death and deadlock flips, every frame report and every next-hop
// decision must be identical, and the incremental run must actually have
// taken the repair path.
func TestRecomputeModesAreEquivalent(t *testing.T) {
	const meshSize, frames = 8, 40
	for _, cfg := range []Config{
		{Kind: KindCentralized},
		{Kind: KindSharded, Shards: 4, StalenessFrames: 3},
	} {
		t.Run(string(cfg.Kind), func(t *testing.T) {
			full := cfg
			full.Recompute = "full"
			incr := cfg
			incr.Recompute = "incremental"

			cpFull, err := New(full, testDeps(meshSize, routing.NewEAR()))
			if err != nil {
				t.Fatal(err)
			}
			cpIncr, err := New(incr, testDeps(meshSize, routing.NewEAR()))
			if err != nil {
				t.Fatal(err)
			}

			repFull, hopsFull := driveTrajectory(t, cpFull, meshSize, frames)
			repIncr, hopsIncr := driveTrajectory(t, cpIncr, meshSize, frames)

			for i := range repFull {
				if !reflect.DeepEqual(repFull[i], repIncr[i]) {
					t.Fatalf("frame %d report diverged: full=%+v incremental=%+v", i+1, repFull[i], repIncr[i])
				}
			}
			for i := range hopsFull {
				if hopsFull[i] != hopsIncr[i] {
					t.Fatalf("next-hop %d diverged: full=%d incremental=%d", i, hopsFull[i], hopsIncr[i])
				}
			}

			fullF, fullI := cpFull.RecomputeSplit()
			if fullI != 0 || fullF == 0 {
				t.Fatalf("full-mode plane split = (%d full, %d incremental), want all full", fullF, fullI)
			}
			incrF, incrI := cpIncr.RecomputeSplit()
			if incrI == 0 {
				t.Fatalf("incremental-mode plane split = (%d full, %d incremental): repair path never taken", incrF, incrI)
			}
			if fullF+fullI != incrF+incrI {
				t.Fatalf("total recompute counts differ: full-mode %d vs incremental-mode %d", fullF+fullI, incrF+incrI)
			}
		})
	}
}
