package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{LinkRate: 0.05, LinkRecoveryFrames: 8, Seed: 7},
		{NodeRate: 0.02, NodeRecoveryFrames: 12},
		{WearMeanTraversals: 150},
		{WearMeanTraversals: 2000, WearShape: 1.5},
		{Regions: []RegionEvent{{Shard: 1, KillFrame: 40, RestoreFrame: 120}}},
		{Regions: []RegionEvent{{Shard: 0, KillFrame: 30}}},
		{
			LinkRate: 0.05, LinkRecoveryFrames: 8,
			NodeRate: 0.02, NodeRecoveryFrames: 12,
			WearMeanTraversals: 4000,
			Regions:            []RegionEvent{{Shard: 2, KillFrame: 60, RestoreFrame: 140}},
			Seed:               1,
		},
	}
	for _, want := range specs {
		s := want.String()
		got, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip through %q: got %+v, want %+v", s, got, want)
		}
	}
	// The empty schedule renders as "" and parses back to the zero value.
	if s := (Spec{}).String(); s != "" {
		t.Errorf("empty schedule renders as %q, want empty", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"link",                // no =
		"link=0.05",           // missing recovery
		"link=x:8",            // bad rate
		"link=0.05:y",         // bad recovery
		"crash=0.02",          // missing recovery
		"wear=abc",            // bad mean
		"wear=100:abc",        // bad shape
		"kill=1",              // missing @FRAME
		"kill=x@40",           // bad shard
		"kill=1@x",            // bad frame
		"kill=1@40:x",         // bad restore
		"seed=-1",             // negative seed
		"flux=1",              // unknown key
		"link=0.05:8,,wear=x", // bad clause after empties
		"link=0:8",            // recovery without a rate (String would drop it)
		"crash=NaN:3",         // NaN rate
		"wear=NaN",            // NaN mean
		"wear=0:2",            // shape without the wear model
		"kill=0@10:5",         // restore before kill
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted malformed input", s)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		shards int
		substr string // "" = valid
	}{
		{"empty", Spec{}, 1, ""},
		{"full valid", Spec{LinkRate: 0.1, LinkRecoveryFrames: 4, NodeRate: 0.1, NodeRecoveryFrames: 4,
			WearMeanTraversals: 100, WearShape: 2, Regions: []RegionEvent{{Shard: 3, KillFrame: 10, RestoreFrame: 20}}}, 4, ""},
		{"negative link rate", Spec{LinkRate: -0.1, LinkRecoveryFrames: 4}, 1, "link fault rate"},
		{"link rate 1", Spec{LinkRate: 1, LinkRecoveryFrames: 4}, 1, "link fault rate"},
		{"link no recovery", Spec{LinkRate: 0.1}, 1, "recovery time"},
		{"crash no recovery", Spec{NodeRate: 0.1}, 1, "recovery time"},
		{"NaN link rate", Spec{LinkRate: math.NaN(), LinkRecoveryFrames: 4}, 1, "link fault rate"},
		{"recovery without link rate", Spec{LinkRecoveryFrames: 4}, 1, "link faults are disabled"},
		{"recovery without crash rate", Spec{NodeRecoveryFrames: 4}, 1, "node crashes are disabled"},
		{"negative wear", Spec{WearMeanTraversals: -1}, 1, "wear mean"},
		{"shape without wear", Spec{WearShape: 2}, 1, "wear model is disabled"},
		{"shard out of range", Spec{Regions: []RegionEvent{{Shard: 4, KillFrame: 10}}}, 4, "outside"},
		{"kill frame 0", Spec{Regions: []RegionEvent{{Shard: 0, KillFrame: 0}}}, 1, "frame >= 1"},
		{"restore before kill", Spec{Regions: []RegionEvent{{Shard: 0, KillFrame: 10, RestoreFrame: 10}}}, 1, "not after"},
	}
	for _, c := range cases {
		err := c.spec.Validate(c.shards)
		if c.substr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.substr)
		}
	}
}

// runSchedule drives a runtime for the given number of frames, feeding every
// surviving link one traversal per frame, and returns the flattened event
// log.
func runSchedule(r *Runtime, g *topology.Graph, frames int64) []Event {
	var log []Event
	for f := int64(1); f <= frames; f++ {
		log = append(log, r.FrameStart(f)...)
		for _, l := range g.Links() {
			if l.From < l.To {
				r.RecordHop(l.From, l.To)
			}
		}
	}
	return log
}

// TestScheduleDeterminism pins the core contract: the event sequence is a
// pure function of (spec, seed, traffic) — two runtimes over identical graph
// clones replay it exactly, and a different seed diverges.
func TestScheduleDeterminism(t *testing.T) {
	spec := Spec{
		LinkRate: 0.1, LinkRecoveryFrames: 5,
		NodeRate: 0.05, NodeRecoveryFrames: 7,
		WearMeanTraversals: 300,
		Regions:            []RegionEvent{{Shard: 1, KillFrame: 20, RestoreFrame: 50}},
		Seed:               42,
	}
	g1 := topology.MustMesh(6, 6, 1).Graph.Clone()
	g2 := topology.MustMesh(6, 6, 1).Graph.Clone()
	log1 := runSchedule(New(spec, g1, 4), g1, 120)
	log2 := runSchedule(New(spec, g2, 4), g2, 120)
	if len(log1) == 0 {
		t.Fatal("schedule produced no events in 120 frames at these rates")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatal("identical (spec, graph, traffic) produced different event sequences")
	}

	other := spec
	other.Seed = 43
	g3 := topology.MustMesh(6, 6, 1).Graph.Clone()
	log3 := runSchedule(New(other, g3, 4), g3, 120)
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical event sequences (suspicious)")
	}
}

// TestFrameStartOrdering pins the intra-frame order: recoveries strictly
// before injections, so a healed link is immediately a candidate for a fresh
// fault.
func TestFrameStartOrdering(t *testing.T) {
	spec := Spec{LinkRate: 0.5, LinkRecoveryFrames: 3, NodeRate: 0.3, NodeRecoveryFrames: 4, Seed: 9}
	g := topology.MustMesh(5, 5, 1).Graph.Clone()
	r := New(spec, g, 1)
	sawMixedFrame := false
	for f := int64(1); f <= 200; f++ {
		events := r.FrameStart(f)
		seenInjection := false
		for _, ev := range events {
			if ev.Kind.Recovery() {
				if seenInjection {
					t.Fatalf("frame %d: recovery %v after injection in %v", f, ev.Kind, events)
				}
			} else {
				seenInjection = true
				if ev.RecoverAt != 0 && ev.RecoverAt <= f {
					t.Fatalf("frame %d: injection %v recovers at %d, not in the future", f, ev.Kind, ev.RecoverAt)
				}
			}
		}
		if len(events) > 1 && events[0].Kind.Recovery() && seenInjection {
			sawMixedFrame = true
		}
	}
	if !sawMixedFrame {
		t.Error("200 frames at rate 0.5 never mixed a recovery and an injection in one frame — ordering untested")
	}
}

// TestTransientLinkLifecycle follows one transient fault from injection to
// heal: the link leaves the graph at LinkDown, RecoveryPending holds through
// the window, and the LinkUp at RecoverAt restores the link bidirectionally.
func TestTransientLinkLifecycle(t *testing.T) {
	spec := Spec{LinkRate: 0.9, LinkRecoveryFrames: 4, Seed: 3}
	g := topology.MustMesh(4, 4, 1).Graph.Clone()
	r := New(spec, g, 1)
	var down Event
	var downFrame int64
	for f := int64(1); f <= 50 && down.RecoverAt == 0; f++ {
		for _, ev := range r.FrameStart(f) {
			if ev.Kind == LinkDown {
				down, downFrame = ev, f
				break
			}
		}
	}
	if down.RecoverAt == 0 {
		t.Fatal("rate 0.9 never injected a link fault in 50 frames")
	}
	if down.RecoverAt != downFrame+spec.LinkRecoveryFrames {
		t.Fatalf("fault at frame %d recovers at %d, want %d", downFrame, down.RecoverAt, downFrame+spec.LinkRecoveryFrames)
	}
	if _, ok := g.Link(down.From, down.To); ok {
		t.Fatal("faulted link still present in the graph")
	}
	if !r.RecoveryPending() {
		t.Fatal("RecoveryPending false with a heal outstanding")
	}
	healed := false
	for f := downFrame + 1; f <= down.RecoverAt; f++ {
		for _, ev := range r.FrameStart(f) {
			if ev.Kind == LinkUp && ev.From == down.From && ev.To == down.To {
				if f != down.RecoverAt {
					t.Fatalf("link healed at frame %d, scheduled for %d", f, down.RecoverAt)
				}
				healed = true
			}
		}
	}
	if !healed {
		t.Fatal("scheduled LinkUp never fired")
	}
	if _, ok := g.Link(down.From, down.To); !ok {
		t.Fatal("healed link missing from the graph")
	}
	if _, ok := g.Link(down.To, down.From); !ok {
		t.Fatal("healed link missing its reverse direction")
	}
}

// TestWearBudgetDistribution pins the Weibull wear model: budgets are a pure
// function of (seed, link index) with the configured mean.
func TestWearBudgetDistribution(t *testing.T) {
	spec := Spec{WearMeanTraversals: 500, Seed: 11}
	g := topology.MustMesh(16, 16, 1).Graph.Clone()
	r := New(spec, g, 1)
	var sum float64
	for _, l := range r.links {
		if l.wearBudget <= 0 || math.IsInf(l.wearBudget, 1) {
			t.Fatalf("link %d-%d budget %g, want positive finite", l.from, l.to, l.wearBudget)
		}
		sum += l.wearBudget
	}
	mean := sum / float64(len(r.links))
	// 480 undirected links: the sample mean should land within 10% of the
	// configured mean for a correct scale = mean / Γ(1 + 1/k).
	if mean < 450 || mean > 550 {
		t.Errorf("sample mean budget %.1f over %d links, want ≈ 500", mean, len(r.links))
	}
	// Same seed redraws the same budgets; a different seed does not.
	r2 := New(spec, topology.MustMesh(16, 16, 1).Graph.Clone(), 1)
	for i := range r.links {
		if r.links[i].wearBudget != r2.links[i].wearBudget {
			t.Fatal("wear budgets differ across runtimes with the same seed")
		}
	}
	other := spec
	other.Seed = 12
	r3 := New(other, topology.MustMesh(16, 16, 1).Graph.Clone(), 1)
	same := true
	for i := range r.links {
		if r.links[i].wearBudget != r3.links[i].wearBudget {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical wear budgets (suspicious)")
	}
}

// TestWearBreaksPreserveConnectivity drives a tiny cycle to exhaustion: on a
// 2x2 mesh only one of the four links can break without partitioning, so the
// runtime must break exactly one and defer the rest forever.
func TestWearBreaksPreserveConnectivity(t *testing.T) {
	spec := Spec{WearMeanTraversals: 2, Seed: 5} // budgets of a few traversals
	g := topology.MustMesh(2, 2, 1).Graph.Clone()
	r := New(spec, g, 1)
	broken := 0
	for f := int64(1); f <= 100; f++ {
		for _, ev := range r.FrameStart(f) {
			if ev.Kind == LinkBreak {
				broken++
			}
		}
		for _, l := range g.Links() {
			if l.From < l.To {
				r.RecordHop(l.From, l.To)
			}
		}
		if !g.Connected() {
			t.Fatalf("frame %d: wear break disconnected the graph", f)
		}
	}
	if broken != 1 {
		t.Fatalf("2x2 cycle broke %d links, want exactly 1 (more would partition)", broken)
	}
	marked := 0
	for _, l := range r.links {
		if l.broken {
			marked++
		}
	}
	if marked != 1 {
		t.Fatalf("%d links are marked broken, want 1", marked)
	}
	if len(g.Links()) != 8-2 {
		t.Fatalf("%d links after one bidirectional break, want 6", len(g.Links()))
	}
}

// TestRegionKillWindow pins the deterministic region schedule: down at
// KillFrame, up at RestoreFrame, RecoveryPending across the window.
func TestRegionKillWindow(t *testing.T) {
	spec := Spec{Regions: []RegionEvent{{Shard: 1, KillFrame: 5, RestoreFrame: 9}}}
	g := topology.MustMesh(4, 4, 1).Graph.Clone()
	r := New(spec, g, 4)
	for f := int64(1); f <= 12; f++ {
		events := r.FrameStart(f)
		switch f {
		case 5:
			if len(events) != 1 || events[0].Kind != RegionDown || events[0].Shard != 1 || events[0].RecoverAt != 9 {
				t.Fatalf("frame 5 events = %+v, want one RegionDown shard 1 recovering at 9", events)
			}
			if !r.RecoveryPending() {
				t.Fatal("RecoveryPending false inside the kill window")
			}
		case 9:
			if len(events) != 1 || events[0].Kind != RegionUp || events[0].Shard != 1 {
				t.Fatalf("frame 9 events = %+v, want one RegionUp shard 1", events)
			}
		default:
			if len(events) != 0 {
				t.Fatalf("frame %d events = %+v, want none", f, events)
			}
		}
	}
	if r.RecoveryPending() {
		t.Fatal("RecoveryPending true after the window closed")
	}
}

// TestPermanentKillNeverRecovers: RestoreFrame 0 opens a window that never
// closes, and RecoveryPending must NOT count it (nothing is coming back, so
// the engine must not block jobs forever on its account).
func TestPermanentKillNeverRecovers(t *testing.T) {
	spec := Spec{Regions: []RegionEvent{{Shard: 0, KillFrame: 3}}}
	g := topology.MustMesh(4, 4, 1).Graph.Clone()
	r := New(spec, g, 1)
	for f := int64(1); f <= 40; f++ {
		for _, ev := range r.FrameStart(f) {
			if ev.Kind == RegionUp {
				t.Fatalf("frame %d: permanent kill produced a RegionUp", f)
			}
			if ev.Kind == RegionDown && ev.RecoverAt != 0 {
				t.Fatalf("permanent kill carries RecoverAt %d, want 0", ev.RecoverAt)
			}
		}
	}
	if r.RecoveryPending() {
		t.Fatal("RecoveryPending true for a permanent kill window")
	}
}

// TestEnabledZeroValue pins the gate the engine relies on for byte-identical
// fault-free behaviour.
func TestEnabledZeroValue(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("zero-value schedule reports Enabled")
	}
	if (Spec{Seed: 99}).Enabled() {
		t.Fatal("seed-only schedule reports Enabled (a seed alone produces no events)")
	}
	for _, sp := range []Spec{
		{LinkRate: 0.01, LinkRecoveryFrames: 1},
		{NodeRate: 0.01, NodeRecoveryFrames: 1},
		{WearMeanTraversals: 10},
		{Regions: []RegionEvent{{Shard: 0, KillFrame: 1}}},
	} {
		if !sp.Enabled() {
			t.Fatalf("schedule %+v reports disabled", sp)
		}
	}
}
