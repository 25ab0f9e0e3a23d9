package controlplane

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/energy"
	"repro/internal/routing"
	"repro/internal/tdma"
	"repro/internal/topology"
)

// testDeps builds a complete dependency set for an n x n mesh with the
// checkerboard-style destination lists used throughout the routing tests.
func testDeps(meshSize int, alg routing.Algorithm) Deps {
	mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
	dests := map[app.ModuleID][]topology.NodeID{}
	for _, n := range mesh.Nodes() {
		m := app.ModuleID(int(n.ID)%3 + 1)
		dests[m] = append(dests[m], n.ID)
	}
	return Deps{
		Graph:           mesh.Graph,
		Algorithm:       alg,
		Destinations:    dests,
		TDMA:            tdma.DefaultParams(),
		Controllers:     1,
		ControllerPower: energy.PaperController4x4(),
	}
}

// fullState returns a snapshot in which every node is alive with a full
// battery.
func fullState(g *topology.Graph, levels int) *routing.SystemState {
	st := &routing.SystemState{Graph: g, Levels: levels, Status: make([]routing.NodeStatus, g.NodeCount())}
	for i := range st.Status {
		st.Status[i] = routing.NodeStatus{Alive: true, BatteryLevel: levels - 1}
	}
	return st
}

func aliveCount(s *routing.SystemState) int {
	alive := 0
	for _, st := range s.Status {
		if st.Alive {
			alive++
		}
	}
	return alive
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"", KindCentralized},
		{"centralized", KindCentralized},
		{"sharded", KindSharded},
	} {
		kind, err := ParseKind(tc.name)
		if err != nil || kind != tc.want {
			t.Errorf("ParseKind(%q) = %q, %v, want %q", tc.name, kind, err, tc.want)
		}
	}
	_, err := ParseKind("shraded")
	if err == nil {
		t.Fatal("typo accepted")
	}
	// The error must list every valid name so the CLI message is actionable.
	for _, name := range KindNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("typo error %q does not list %q", err, name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	const k = 16
	valid := []Config{
		{},
		{Kind: KindCentralized},
		{Kind: KindCentralized, Shards: 1, StalenessFrames: 1},
		{Kind: KindSharded},
		{Kind: KindSharded, Shards: 16, StalenessFrames: 128},
	}
	for _, cfg := range valid {
		if err := cfg.Validate(k); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	invalid := []Config{
		{Kind: "shraded"},
		{Shards: -1},
		{StalenessFrames: -4},
		{Kind: KindCentralized, Shards: 2},
		{Kind: KindCentralized, StalenessFrames: 8},
		{Kind: KindSharded, Shards: 17},
	}
	for _, cfg := range invalid {
		if err := cfg.Validate(k); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid configuration", cfg)
		}
	}
}

func TestNewDispatchesAndDefaults(t *testing.T) {
	deps := testDeps(4, routing.NewEAR())
	cp, err := New(Config{}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Name() != string(KindCentralized) || cp.Shards() != 1 {
		t.Fatalf("zero config built %s with %d shards, want centralized with 1", cp.Name(), cp.Shards())
	}
	cp, err = New(Config{Kind: KindSharded}, deps)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := cp.(*Sharded)
	if !ok || cp.Name() != string(KindSharded) || cp.Shards() != DefaultShards {
		t.Fatalf("sharded zero config built %T (%s, %d shards), want sharded with %d", cp, cp.Name(), cp.Shards(), DefaultShards)
	}
	if sh.StalenessFrames() != 1 {
		t.Fatalf("default staleness = %d frames, want 1", sh.StalenessFrames())
	}
	if _, err := New(Config{Kind: KindSharded, Shards: 64}, deps); err == nil {
		t.Fatal("New accepted more shards than nodes")
	}
}
