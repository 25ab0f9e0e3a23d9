package trace_test

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// regionFaults records the engine's region fault events in stream order.
type regionFaults struct {
	sim.BaseObserver
	events []sim.FaultEvent
}

func (r *regionFaults) FaultInjected(e sim.FaultEvent)  { r.record(e) }
func (r *regionFaults) FaultRecovered(e sim.FaultEvent) { r.record(e) }

func (r *regionFaults) record(e sim.FaultEvent) {
	if e.Kind == faults.RegionDown || e.Kind == faults.RegionUp {
		r.events = append(r.events, e)
	}
}

// TestWireNamesTheRegionOfRegionFaults: every region-down and region-up line
// the wire stream encodes names the region of the engine's FaultEvent, region
// 0 included, and no other line carries a region.
func TestWireNamesTheRegionOfRegionFaults(t *testing.T) {
	sp, ok := scenario.Lookup("chaos-region-failover")
	if !ok {
		t.Fatal("chaos-region-failover not registered")
	}
	var lines [][]byte
	wire := &trace.Wire{Sink: func(e trace.WireEvent) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}}
	engine := &regionFaults{}
	if _, err := sp.Simulate(wire, engine); err != nil {
		t.Fatal(err)
	}
	if len(engine.events) == 0 {
		t.Fatal("chaos-region-failover injected no region faults")
	}

	var regions []int
	for _, b := range lines {
		var line struct {
			Kind   string `json:"kind"`
			Region *int   `json:"region"`
		}
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		isRegion := line.Kind == faults.RegionDown.String() || line.Kind == faults.RegionUp.String()
		switch {
		case isRegion && line.Region == nil:
			t.Errorf("region fault line names no region: %s", b)
		case !isRegion && line.Region != nil:
			t.Errorf("non-region line carries a region: %s", b)
		case isRegion:
			regions = append(regions, *line.Region)
		}
	}
	if len(regions) != len(engine.events) {
		t.Fatalf("wire stream has %d region fault lines, engine emitted %d", len(regions), len(engine.events))
	}
	for i, e := range engine.events {
		if regions[i] != e.Shard {
			t.Errorf("region fault %d (%s, frame %d): wire names region %d, engine shard %d",
				i, e.Kind, e.Frame, regions[i], e.Shard)
		}
	}
}

// TestWireEncodesRegionZero: region 0 is a real region, so its faults must
// still carry "region":0 on the wire.
func TestWireEncodesRegionZero(t *testing.T) {
	var got []byte
	wire := &trace.Wire{Sink: func(e trace.WireEvent) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got = b
	}}
	wire.FaultInjected(sim.FaultEvent{Now: 7, Frame: 1, Kind: faults.RegionDown, Shard: 0})
	const want = `{"type":"fault_injected","now":7,"frame":1,"kind":"region-down","region":0}`
	if string(got) != want {
		t.Errorf("region-0 fault encoded as %s, want %s", got, want)
	}
}
