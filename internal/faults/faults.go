// Package faults is the deterministic runtime fault-schedule subsystem: it
// turns a compact declarative Spec into a replayable sequence of mid-run
// failure events — transient link faults that heal, permanent link breaks
// from a traversal-count wear model, node crash/restore cycles and
// controller-region kill windows — that the simulation engine applies at TDMA
// frame boundaries.
//
// Everything here is a pure function of (Spec, Seed, frame index, traversal
// history): the schedule uses an index-addressed SplitMix64 draw per frame
// (internal/splitmix, the generator behind campaign.Stream), no clocks, no
// shared state, no dependence on goroutine scheduling. Two runs of the same
// scenario therefore see byte-identical fault sequences at any worker count,
// which is what lets chaos scenarios and degradation sweeps live inside the
// repo's determinism contract. See DESIGN.md, "Fault-injection contract".
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/splitmix"
	"repro/internal/topology"
)

// u01 maps a 64-bit draw to the open unit interval (never exactly 0 or 1, so
// it is safe inside a logarithm).
func u01(w uint64) float64 { return (float64(w>>11) + 0.5) / (1 << 53) }

// RegionEvent kills one controller region for a window of frames: the
// region's pool stops serving frames at KillFrame and resumes at RestoreFrame
// (0 = never restores). Under the sharded control plane the orphaned region's
// nodes are adopted by the nearest in-service region; under the centralized
// plane (shard 0) the whole mesh routes on last-known-good tables until the
// window closes.
type RegionEvent struct {
	// Shard is the region index (0 for the centralized plane).
	Shard int
	// KillFrame is the TDMA frame at which the region goes down (>= 1).
	KillFrame int64
	// RestoreFrame is the frame at which it comes back, 0 for never; must
	// exceed KillFrame otherwise.
	RestoreFrame int64
}

// Spec declares a fault schedule. The zero value is the empty schedule:
// Enabled() is false and the engine behaves byte-for-byte as if the faults
// subsystem did not exist.
type Spec struct {
	// Seed selects the deterministic draw sequence for the stochastic
	// channels (transient link faults, crashes, wear thresholds). Replicated
	// campaigns override it from campaign.Seeds.Transient.
	Seed uint64

	// LinkRate is the per-frame probability (in [0, 1)) that one currently
	// healthy interconnect suffers a transient fault; the faulted link
	// vanishes from the topology for LinkRecoveryFrames frames and then
	// heals. Transient faults may partition the fabric — they heal, and the
	// engine blocks affected jobs instead of declaring death while a
	// recovery is outstanding.
	LinkRate           float64
	LinkRecoveryFrames int64

	// NodeRate is the per-frame probability (in [0, 1)) that one running
	// node crashes: it stops computing, relaying and reporting for
	// NodeRecoveryFrames frames (its battery rests through the outage), then
	// restores. Jobs resident at the node when it crashes are lost, exactly
	// as for a battery death — but the module is not considered extinct
	// while every duplicate is merely crashed.
	NodeRate           float64
	NodeRecoveryFrames int64

	// WearMeanTraversals enables the permanent wear model: every initial
	// interconnect draws a Weibull(shape = WearShape, mean ≈
	// WearMeanTraversals) traversal budget from the seed, and breaks for
	// good at the frame boundary after its packet-traversal count crosses
	// the budget. A break that would disconnect the current topology is
	// deferred (retried while the condition persists), mirroring
	// topology.FailLinks: a fully partitioned garment is dead, not a routing
	// scenario. 0 disables wear.
	WearMeanTraversals float64
	// WearShape is the Weibull shape parameter k (0 = default 2, wear-out
	// behaviour: hazard grows with traversal count).
	WearShape float64

	// Regions lists the controller-region kill windows.
	Regions []RegionEvent
}

// DefaultWearShape is the Weibull shape used when Spec.WearShape is 0: hazard
// growing linearly with traversal count, the classic wear-out regime.
const DefaultWearShape = 2.0

// Enabled reports whether the schedule can ever produce an event. The engine
// skips the whole subsystem — and stays byte-identical to a build without it —
// when this is false.
func (sp Spec) Enabled() bool {
	return sp.LinkRate > 0 || sp.NodeRate > 0 || sp.WearMeanTraversals > 0 || len(sp.Regions) > 0
}

// Validate checks the schedule against a control plane with the given shard
// count (1 for centralized). It is called eagerly by scenario.Spec.Strategy,
// so a bad schedule fails at spec time, not inside a sweep worker.
func (sp Spec) Validate(shards int) error {
	if err := sp.check(); err != nil {
		return err
	}
	for i, ev := range sp.Regions {
		if ev.Shard < 0 || ev.Shard >= shards {
			return fmt.Errorf("faults: region event %d kills shard %d, outside the %d-shard control plane", i, ev.Shard, shards)
		}
	}
	return nil
}

// check is Validate without the shard range, which needs the control plane.
// ParseSpec applies it, so every schedule ParseSpec returns renders through
// String and parses back unchanged: String omits a channel whose rate or mean
// is zero, so a recovery time or shape set without one is rejected here.
// NaN fails every range check.
func (sp Spec) check() error {
	if !(sp.LinkRate >= 0 && sp.LinkRate < 1) {
		return fmt.Errorf("faults: link fault rate must be in [0,1), got %g", sp.LinkRate)
	}
	if !(sp.NodeRate >= 0 && sp.NodeRate < 1) {
		return fmt.Errorf("faults: node crash rate must be in [0,1), got %g", sp.NodeRate)
	}
	if sp.LinkRate > 0 && sp.LinkRecoveryFrames < 1 {
		return fmt.Errorf("faults: transient link faults need a recovery time of at least one frame, got %d", sp.LinkRecoveryFrames)
	}
	if sp.LinkRate == 0 && sp.LinkRecoveryFrames != 0 {
		return fmt.Errorf("faults: link recovery time %d is set but link faults are disabled (rate 0)", sp.LinkRecoveryFrames)
	}
	if sp.NodeRate > 0 && sp.NodeRecoveryFrames < 1 {
		return fmt.Errorf("faults: node crashes need a recovery time of at least one frame, got %d", sp.NodeRecoveryFrames)
	}
	if sp.NodeRate == 0 && sp.NodeRecoveryFrames != 0 {
		return fmt.Errorf("faults: node recovery time %d is set but node crashes are disabled (rate 0)", sp.NodeRecoveryFrames)
	}
	if !(sp.WearMeanTraversals >= 0) {
		return fmt.Errorf("faults: wear mean traversals must be non-negative, got %g", sp.WearMeanTraversals)
	}
	if !(sp.WearShape >= 0) {
		return fmt.Errorf("faults: wear shape must be non-negative, got %g", sp.WearShape)
	}
	if sp.WearShape > 0 && sp.WearMeanTraversals == 0 {
		return fmt.Errorf("faults: wear shape %g is set but the wear model is disabled (mean traversals 0)", sp.WearShape)
	}
	for i, ev := range sp.Regions {
		if ev.KillFrame < 1 {
			return fmt.Errorf("faults: region event %d must kill at frame >= 1, got %d", i, ev.KillFrame)
		}
		if ev.RestoreFrame != 0 && ev.RestoreFrame <= ev.KillFrame {
			return fmt.Errorf("faults: region event %d restores at frame %d, not after its kill frame %d", i, ev.RestoreFrame, ev.KillFrame)
		}
	}
	return nil
}

// String renders the schedule in the compact form ParseSpec accepts
// (round-trips exactly). The empty schedule renders as "".
func (sp Spec) String() string {
	var parts []string
	if sp.LinkRate > 0 {
		parts = append(parts, fmt.Sprintf("link=%g:%d", sp.LinkRate, sp.LinkRecoveryFrames))
	}
	if sp.NodeRate > 0 {
		parts = append(parts, fmt.Sprintf("crash=%g:%d", sp.NodeRate, sp.NodeRecoveryFrames))
	}
	if sp.WearMeanTraversals > 0 {
		if sp.WearShape > 0 {
			parts = append(parts, fmt.Sprintf("wear=%g:%g", sp.WearMeanTraversals, sp.WearShape))
		} else {
			parts = append(parts, fmt.Sprintf("wear=%g", sp.WearMeanTraversals))
		}
	}
	for _, ev := range sp.Regions {
		if ev.RestoreFrame > 0 {
			parts = append(parts, fmt.Sprintf("kill=%d@%d:%d", ev.Shard, ev.KillFrame, ev.RestoreFrame))
		} else {
			parts = append(parts, fmt.Sprintf("kill=%d@%d", ev.Shard, ev.KillFrame))
		}
	}
	if sp.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", sp.Seed))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the compact schedule form used by `etsim -faults`:
//
//	link=RATE:RECOVERY   transient link faults (per-frame rate, frames to heal)
//	crash=RATE:RECOVERY  node crashes (per-frame rate, frames to restore)
//	wear=MEAN[:SHAPE]    permanent wear breaks (mean traversals, Weibull shape)
//	kill=SHARD@FRAME[:RESTORE]  controller-region kill window (repeatable)
//	seed=N               schedule seed
//
// clauses separated by commas, e.g. "link=0.05:8,kill=1@40:80,seed=7". The
// empty string is the empty schedule. Values out of range are rejected here,
// except region shards, which Validate checks against the control plane.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	if strings.TrimSpace(s) == "" {
		return sp, nil
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "link":
			rate, rec, err := parseRateRecovery(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: link clause %q: %w", clause, err)
			}
			sp.LinkRate, sp.LinkRecoveryFrames = rate, rec
		case "crash":
			rate, rec, err := parseRateRecovery(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: crash clause %q: %w", clause, err)
			}
			sp.NodeRate, sp.NodeRecoveryFrames = rate, rec
		case "wear":
			mean, shape := val, ""
			if m, sh, ok := strings.Cut(val, ":"); ok {
				mean, shape = m, sh
			}
			f, err := strconv.ParseFloat(mean, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: wear clause %q: bad mean: %w", clause, err)
			}
			sp.WearMeanTraversals = f
			if shape != "" {
				k, err := strconv.ParseFloat(shape, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: wear clause %q: bad shape: %w", clause, err)
				}
				sp.WearShape = k
			}
		case "kill":
			shardStr, frames, ok := strings.Cut(val, "@")
			if !ok {
				return Spec{}, fmt.Errorf("faults: kill clause %q wants SHARD@FRAME[:RESTORE]", clause)
			}
			shard, err := strconv.Atoi(shardStr)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: kill clause %q: bad shard: %w", clause, err)
			}
			killStr, restoreStr := frames, ""
			if k, r, ok := strings.Cut(frames, ":"); ok {
				killStr, restoreStr = k, r
			}
			kill, err := strconv.ParseInt(killStr, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: kill clause %q: bad frame: %w", clause, err)
			}
			ev := RegionEvent{Shard: shard, KillFrame: kill}
			if restoreStr != "" {
				restore, err := strconv.ParseInt(restoreStr, 10, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: kill clause %q: bad restore frame: %w", clause, err)
				}
				ev.RestoreFrame = restore
			}
			sp.Regions = append(sp.Regions, ev)
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: seed clause %q: %w", clause, err)
			}
			sp.Seed = seed
		default:
			return Spec{}, fmt.Errorf("faults: unknown clause key %q (want link, crash, wear, kill or seed)", key)
		}
	}
	if err := sp.check(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func parseRateRecovery(val string) (float64, int64, error) {
	rateStr, recStr, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want RATE:RECOVERY_FRAMES")
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad rate: %w", err)
	}
	rec, err := strconv.ParseInt(recStr, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad recovery: %w", err)
	}
	return rate, rec, nil
}

// Kind labels one fault event.
type Kind int

// The fault event kinds, in the order they are applied within a frame:
// recoveries strictly before new injections, so a link that heals at frame f
// is a candidate for a fresh fault in the same frame's draw.
const (
	// LinkUp heals a transient link fault.
	LinkUp Kind = iota
	// NodeRestore brings a crashed node back.
	NodeRestore
	// RegionUp closes a controller-region kill window.
	RegionUp
	// LinkDown is a transient link fault (recovers at Event.RecoverAt).
	LinkDown
	// LinkBreak is a permanent wear break (never recovers).
	LinkBreak
	// NodeCrash takes a node down (recovers at Event.RecoverAt).
	NodeCrash
	// RegionDown opens a controller-region kill window.
	RegionDown
)

// String names the kind for summaries and traces.
func (k Kind) String() string {
	switch k {
	case LinkUp:
		return "link-up"
	case NodeRestore:
		return "node-restore"
	case RegionUp:
		return "region-up"
	case LinkDown:
		return "link-down"
	case LinkBreak:
		return "link-break"
	case NodeCrash:
		return "node-crash"
	case RegionDown:
		return "region-down"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Recovery reports whether the kind heals a previously injected fault.
func (k Kind) Recovery() bool { return k == LinkUp || k == NodeRestore || k == RegionUp }

// Event is one applied fault transition. Link events carry From/To (the
// undirected pair, From < To), node events carry Node, region events carry
// Shard. RecoverAt is the frame the matching recovery is scheduled for
// (injections only; 0 = permanent).
type Event struct {
	Kind      Kind
	From, To  topology.NodeID
	Node      topology.NodeID
	Shard     int
	RecoverAt int64
}

// link is one initial undirected interconnect tracked by the wear and
// transient-fault channels.
type link struct {
	from, to topology.NodeID
	lengthCM float64

	downUntil  int64 // transient fault outstanding until this frame (0 = up)
	broken     bool  // permanent wear break applied
	traversals int64
	wearBudget float64 // traversal budget drawn from the Weibull wear model; +Inf when wear is off
}

// Runtime executes a Spec against an engine-owned topology. The engine calls
// FrameStart at every frame boundary (after the frame counter advances,
// before the upload phase) and applies the returned events; RecordHop feeds
// the wear model from the packet stream. The Runtime mutates the graph it was
// given — the engine hands it a private clone — removing faulted links and
// restoring healed ones, so the control planes see topology changes through
// the snapshot they already consume.
//
// All decisions are index-addressed draws: frame f consumes words
// [4f, 4f+4) of the seed's stream regardless of history, so the schedule for
// any frame can be recomputed in isolation and never depends on how many
// faults happened before it.
type Runtime struct {
	spec  Spec
	graph *topology.Graph

	links []link
	index map[[2]topology.NodeID]int

	nodeDownUntil []int64 // per node: crashed until this frame (0 = running)
	regionDown    []bool  // per shard: kill window currently open

	pendingRecoveries int // scheduled link/node/region restores outstanding

	// scratch for per-frame candidate selection, reused across frames.
	candidates []int
	events     []Event
}

// New builds a runtime for the given schedule over an engine-owned graph
// clone with the given controller shard count. The wear budgets are drawn
// here, once, from the seed's dedicated channel — they are a pure function of
// (Seed, link index).
func New(spec Spec, g *topology.Graph, shards int) *Runtime {
	r := &Runtime{
		spec:          spec,
		graph:         g,
		index:         make(map[[2]topology.NodeID]int),
		nodeDownUntil: make([]int64, g.NodeCount()),
		regionDown:    make([]bool, shards),
	}
	for _, l := range g.Links() {
		if l.From < l.To {
			r.index[[2]topology.NodeID{l.From, l.To}] = len(r.links)
			r.links = append(r.links, link{from: l.From, to: l.To, lengthCM: l.LengthCM, wearBudget: math.Inf(1)})
		}
	}
	if spec.WearMeanTraversals > 0 {
		shape := spec.WearShape
		if shape == 0 {
			shape = DefaultWearShape
		}
		// Scale the Weibull so its mean is WearMeanTraversals:
		// mean = scale * Γ(1 + 1/shape).
		scale := spec.WearMeanTraversals / math.Gamma(1+1/shape)
		// The wear budgets live on their own sub-stream (seed XOR a fixed
		// tag) so they never alias the per-frame draws.
		wearSeed := splitmix.Mix(spec.Seed ^ 0xC2B2AE3D27D4EB4F)
		for i := range r.links {
			u := u01(splitmix.Word(wearSeed, uint64(i)))
			r.links[i].wearBudget = scale * math.Pow(-math.Log(u), 1/shape)
		}
	}
	return r
}

// RecoveryPending reports whether any injected fault still has a scheduled
// recovery outstanding. The engine consults it before declaring a routing
// dead end terminal: while a recovery is pending the job blocks instead,
// because the topology (or a crashed module duplicate) may come back.
func (r *Runtime) RecoveryPending() bool { return r.pendingRecoveries > 0 }

// RecordHop feeds one packet traversal of the undirected link {from, to} into
// the wear model. Unknown pairs are ignored (a link the runtime is not
// tracking cannot wear out).
func (r *Runtime) RecordHop(from, to topology.NodeID) {
	if r.spec.WearMeanTraversals <= 0 {
		return
	}
	if from > to {
		from, to = to, from
	}
	if i, ok := r.index[[2]topology.NodeID{from, to}]; ok {
		r.links[i].traversals++
	}
}

// FrameStart computes and applies the fault transitions of one frame
// boundary, in deterministic order: scheduled recoveries first (links, then
// nodes, then regions, each in index order), then wear breaks, then at most
// one fresh transient link fault and one node crash drawn from the frame's
// words, then region kill windows opening this frame. The returned slice is
// valid until the next call.
//
// The engine applies node and region transitions itself (the runtime has no
// access to batteries or control planes); link transitions are already
// applied to the graph when FrameStart returns.
func (r *Runtime) FrameStart(frame int64) []Event {
	r.events = r.events[:0]

	// --- recoveries -------------------------------------------------------
	for i := range r.links {
		l := &r.links[i]
		if l.downUntil != 0 && l.downUntil <= frame {
			l.downUntil = 0
			r.pendingRecoveries--
			// A link can wear out while transiently down (its budget was
			// crossed earlier); the break lands below instead of a heal.
			if !l.broken {
				if err := r.graph.AddBiLink(l.from, l.to, l.lengthCM); err == nil {
					r.events = append(r.events, Event{Kind: LinkUp, From: l.from, To: l.to})
				}
			}
		}
	}
	for n := range r.nodeDownUntil {
		if r.nodeDownUntil[n] != 0 && r.nodeDownUntil[n] <= frame {
			r.nodeDownUntil[n] = 0
			r.pendingRecoveries--
			r.events = append(r.events, Event{Kind: NodeRestore, Node: topology.NodeID(n)})
		}
	}
	for _, ev := range r.spec.Regions {
		if ev.RestoreFrame == frame && r.regionDown[ev.Shard] {
			r.regionDown[ev.Shard] = false
			r.pendingRecoveries--
			r.events = append(r.events, Event{Kind: RegionUp, Shard: ev.Shard})
		}
	}

	// --- permanent wear breaks -------------------------------------------
	if r.spec.WearMeanTraversals > 0 {
		for i := range r.links {
			l := &r.links[i]
			if l.broken || float64(l.traversals) < l.wearBudget {
				continue
			}
			if l.downUntil != 0 {
				// Already transiently down: the break replaces the pending
				// heal — the link simply never comes back.
				l.broken = true
				r.events = append(r.events, Event{Kind: LinkBreak, From: l.from, To: l.to})
				continue
			}
			if err := r.graph.RemoveBiLink(l.from, l.to); err != nil {
				continue
			}
			if !r.graph.Connected() {
				// Deferred, FailLinks-style: re-add and retry while the
				// condition persists (the break lands once the topology can
				// absorb it).
				_ = r.graph.AddBiLink(l.from, l.to, l.lengthCM)
				continue
			}
			l.broken = true
			r.events = append(r.events, Event{Kind: LinkBreak, From: l.from, To: l.to})
		}
	}

	// --- fresh transient link fault --------------------------------------
	base := uint64(frame) * 4
	if r.spec.LinkRate > 0 && u01(splitmix.Word(r.spec.Seed, base)) < r.spec.LinkRate {
		r.candidates = r.candidates[:0]
		for i := range r.links {
			if r.links[i].downUntil == 0 && !r.links[i].broken {
				r.candidates = append(r.candidates, i)
			}
		}
		if len(r.candidates) > 0 {
			i := r.candidates[splitmix.Word(r.spec.Seed, base+1)%uint64(len(r.candidates))]
			l := &r.links[i]
			if err := r.graph.RemoveBiLink(l.from, l.to); err == nil {
				l.downUntil = frame + r.spec.LinkRecoveryFrames
				r.pendingRecoveries++
				r.events = append(r.events, Event{Kind: LinkDown, From: l.from, To: l.to, RecoverAt: l.downUntil})
			}
		}
	}

	// --- fresh node crash -------------------------------------------------
	if r.spec.NodeRate > 0 && u01(splitmix.Word(r.spec.Seed, base+2)) < r.spec.NodeRate {
		r.candidates = r.candidates[:0]
		for n := range r.nodeDownUntil {
			if r.nodeDownUntil[n] == 0 {
				r.candidates = append(r.candidates, n)
			}
		}
		if len(r.candidates) > 0 {
			n := r.candidates[splitmix.Word(r.spec.Seed, base+3)%uint64(len(r.candidates))]
			r.nodeDownUntil[n] = frame + r.spec.NodeRecoveryFrames
			r.pendingRecoveries++
			r.events = append(r.events, Event{Kind: NodeCrash, Node: topology.NodeID(n), RecoverAt: r.nodeDownUntil[n]})
		}
	}

	// --- region kill windows ---------------------------------------------
	for _, ev := range r.spec.Regions {
		if ev.KillFrame == frame && !r.regionDown[ev.Shard] {
			r.regionDown[ev.Shard] = true
			if ev.RestoreFrame > 0 {
				r.pendingRecoveries++
			}
			r.events = append(r.events, Event{Kind: RegionDown, Shard: ev.Shard, RecoverAt: ev.RestoreFrame})
		}
	}
	return r.events
}
