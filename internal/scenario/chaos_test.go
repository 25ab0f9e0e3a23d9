package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestChaosScenariosExerciseTheFaultChannels runs the cheap chaos scenarios
// and checks each actually drives the channel it advertises.
func TestChaosScenariosExerciseTheFaultChannels(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, res sim.Result)
	}{
		{"chaos-links", func(t *testing.T, res sim.Result) {
			if res.FaultsInjected == 0 || res.FaultsRecovered == 0 {
				t.Errorf("no transient link faults: %d injected, %d recovered", res.FaultsInjected, res.FaultsRecovered)
			}
		}},
		{"chaos-crashes", func(t *testing.T, res sim.Result) {
			if res.FaultsInjected == 0 || res.FaultsRecovered == 0 {
				t.Errorf("no node crashes: %d injected, %d recovered", res.FaultsInjected, res.FaultsRecovered)
			}
		}},
		{"chaos-wear", func(t *testing.T, res sim.Result) {
			if res.LinksBroken == 0 {
				t.Error("wear scenario broke no links")
			}
		}},
		{"chaos-blackout", func(t *testing.T, res sim.Result) {
			if res.FaultsInjected == 0 || res.FaultsRecovered == 0 {
				t.Errorf("blackout window never opened/closed: %d injected, %d recovered", res.FaultsInjected, res.FaultsRecovered)
			}
		}},
		{"chaos-region-failover", func(t *testing.T, res sim.Result) {
			// One adoption when the region dies, one hand-back when it
			// returns; the adopter serves the whole 16-node home block.
			if res.RegionFailovers != 2 {
				t.Errorf("region failovers = %d, want 2 (adoption + hand-back)", res.RegionFailovers)
			}
			if res.PeakAdoptedNodes != 16 {
				t.Errorf("peak adopted nodes = %d, want 16 (one 8x8/4 home block)", res.PeakAdoptedNodes)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, ok := Lookup(c.name)
			if !ok {
				t.Fatalf("%s not registered", c.name)
			}
			res, err := spec.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, res)
		})
	}
}

// TestFaultScheduleValidatedEagerly: a bad schedule fails at Strategy time
// with a parse or validation error, never from inside a worker.
func TestFaultScheduleValidatedEagerly(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		substr string
	}{
		{"malformed clause", Spec{Mesh: 4, Faults: "link=oops"}, "link clause"},
		{"unknown key", Spec{Mesh: 4, Faults: "flux=1"}, "unknown clause"},
		{"kill outside centralized plane", Spec{Mesh: 4, Faults: "kill=1@10"}, "outside"},
		{"kill outside sharded plane", Spec{Mesh: 4, ControlPlane: "sharded", Shards: 4, Faults: "kill=5@10"}, "outside"},
		{"missing recovery", Spec{Mesh: 4, Faults: "link=0.05:0"}, "recovery time"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Strategy()
			if err == nil || !strings.Contains(err.Error(), c.substr) {
				t.Fatalf("Strategy error = %v, want substring %q", err, c.substr)
			}
		})
	}
	// The kill clause that fails on the centralized plane is fine on a
	// 4-shard plane (and shard 0 is fine on centralized).
	ok := Spec{Mesh: 4, ControlPlane: "sharded", Shards: 4, Faults: "kill=1@10"}
	if _, err := ok.Strategy(); err != nil {
		t.Fatalf("valid sharded kill window rejected: %v", err)
	}
	okCentral := Spec{Mesh: 4, Faults: "kill=0@10:20"}
	if _, err := okCentral.Strategy(); err != nil {
		t.Fatalf("valid centralized kill window rejected: %v", err)
	}
}
