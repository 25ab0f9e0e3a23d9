package controlplane

import (
	"repro/internal/app"
	"repro/internal/routing"
	"repro/internal/tdma"
	"repro/internal/topology"
)

// regionState is one regional controller's private world: the contiguous node
// range it owns, its (possibly stale) full-mesh view of the reported status,
// the view it adopted at its last recompute, and its own routing workspace and
// table generation. Each region owns its controller pool, so one region can
// exhaust its batteries and die while the others keep serving frames.
type regionState struct {
	lo, hi int // home node range [lo, hi)

	view    routing.SystemState // current belief about the whole mesh
	last    routing.SystemState // view adopted at the last recompute
	hasLast bool

	pool       *tdma.Pool // the region's redundant controllers
	ws         *routing.DeltaWorkspace
	tables     *routing.Tables
	dead       bool // battery death: permanent, tables frozen, no failover
	faultDown  bool // runtime fault window (FaultRegion): nodes failed over
	recomputes int
}

// Sharded is the regional control plane: the mesh is partitioned into
// contiguous shards of near-equal size (node IDs are row-major, so on a mesh
// the shards are contiguous row bands), each owned by a regional controller
// pool with its own workspace and finite batteries.
//
// Every frame a region hears its own shard's upload slots, so its view of its
// own nodes is always fresh; the other regions' battery/deadlock summaries are
// exchanged only every StalenessFrames frames, so between exchanges the region
// routes on a stale view of the rest of the fabric. A region re-runs the
// routing algorithm only when the state it can see changed, which both skips
// frames where only invisible remote changes happened and batches many remote
// changes into the single recompute after an exchange. A region whose pool
// dies freezes its tables: its nodes keep routing on the last downloaded
// generation while the surviving regions continue to adapt.
//
// With one region and a staleness bound of one frame this is the paper's
// central controller: the region hears every upload slot each frame, so it
// recomputes exactly when the reported state changed, and a kill window
// freezes the whole mesh on its last-known-good tables.
//
// The whole schedule is a pure function of (frame index, reported state), so
// sharded sweeps remain byte-identical at every worker count.
type Sharded struct {
	deps      Deps
	kind      Kind // reported by Name
	staleness int

	shards []regionState
	owner  []int // NodeID -> serving shard index (its home shard unless failed over)

	// Failover bookkeeping: adopt[h] is the region currently serving home
	// block h; prevAdopt is last frame's assignment (the diff is the
	// FrameReport.Failovers list); ownedChanged[b] marks regions whose
	// served node set changed this frame, forcing a recompute so adopted
	// nodes get fresh tables immediately. A region is handed over only while
	// fault-down: battery death keeps the pre-failover frozen-table
	// behaviour, byte-identical to before runtime faults existed.
	adopt        []int
	prevAdopt    []int
	ownedChanged []bool

	// deadlockCounted is the plane-level edge detector for deadlock reports:
	// a stuck node is counted once by whichever region serves it when the
	// report first becomes visible, and the mark survives failover hand-overs
	// (a per-region detector would re-count the node when its home region
	// returns with a view predating the report). Cleared when the node
	// unblocks, so a later, distinct deadlock counts again — exactly the
	// semantics the per-region comparison had without failover.
	deadlockCounted []bool
}

// New builds the control plane selected by cfg, validated against deps'
// graph. Every kind is a Sharded plane: KindCentralized is its one-region
// configuration (ShardCount is 1 and the staleness bound defaults to one
// frame) and keeps the name "centralized".
func New(cfg Config, deps Deps) (*Sharded, error) {
	k := deps.Graph.NodeCount()
	mode, err := cfg.validate(k)
	if err != nil {
		return nil, err
	}
	shards := cfg.ShardCount()
	kind := KindCentralized
	if cfg.Kind == KindSharded {
		kind = KindSharded
	}
	s := &Sharded{
		deps:            deps,
		kind:            kind,
		staleness:       max(cfg.StalenessFrames, 1),
		shards:          make([]regionState, shards),
		owner:           make([]int, k),
		adopt:           make([]int, shards),
		prevAdopt:       make([]int, shards),
		ownedChanged:    make([]bool, shards),
		deadlockCounted: make([]bool, k),
	}
	for b := range s.shards {
		pool, err := tdma.NewPool(deps.Controllers, deps.ControllerBattery)
		if err != nil {
			return nil, err
		}
		lo, hi := b*k/shards, (b+1)*k/shards
		// Per-region delta workspaces: each region diffs against its own
		// previous weight matrix, so between exchange frames a region's
		// recompute dirties only the vertices its fresh local reports
		// actually moved, and an exchange frame dirties only the remote
		// vertices whose summaries changed.
		ws := routing.NewDeltaWorkspace()
		ws.SetMode(mode)
		s.shards[b] = regionState{lo: lo, hi: hi, pool: pool, ws: ws}
		s.adopt[b], s.prevAdopt[b] = b, b
		for n := lo; n < hi; n++ {
			s.owner[n] = b
		}
	}
	return s, nil
}

// Name identifies the configured kind ("centralized", "sharded").
func (s *Sharded) Name() string { return string(s.kind) }

// Frame runs the controller side of one TDMA frame, called once per frame
// after the upload phase: adopt the snapshot, decide recompute, rebuild
// tables, account energy and liveness, for every living region in shard
// order for determinism. snapshot is the engine-owned status report, which
// the plane reads during the call and never retains, so the engine may refill
// the same buffer every frame; each region counts the alive nodes it serves
// from its own view of it. The report is a pure function of (frame
// index, reported state) and the plane's own prior decisions.
func (s *Sharded) Frame(frame int64, snapshot *routing.SystemState) FrameReport {
	var rep FrameReport
	s.reassignOwners(&rep)
	// Summary-exchange frames: the first frame always synchronises (every
	// region must learn the initial state), then every staleness-th frame
	// after it.
	exchange := (frame-1)%int64(s.staleness) == 0
	k := s.deps.Graph.NodeCount()
	needLevels := s.deps.Algorithm.NeedsBatteryInfo()
	// donor is the last region this frame whose recompute was a full pass.
	// On an exchange frame every in-service region copies the whole
	// snapshot, so their weights are usually bit-identical and the next
	// region the policy sends to a full pass copies the donor's phase 2
	// instead of rerunning it (DeltaWorkspace.ComputeShared checks the
	// weights bit for bit).
	var donor *routing.DeltaWorkspace

	for b := range s.shards {
		sh := &s.shards[b]
		if sh.dead {
			continue
		}
		if sh.faultDown {
			// Kill window: the region serves nothing; its batteries recover
			// while the pool is off. Its nodes were handed to an in-service
			// region by reassignOwners above.
			sh.pool.RestAll(tdma.FramePeriodCycles)
			continue
		}
		// Refresh the region's view: the shards it currently serves (its own,
		// plus any adopted home blocks) every frame — a serving region hears
		// the upload slots of every node it owns — and the rest of the mesh
		// only on exchange frames.
		if sh.view.Status == nil {
			sh.view = routing.SystemState{Graph: snapshot.Graph}
			sh.view.Status = make([]routing.NodeStatus, len(snapshot.Status))
		}
		// Topology changes (fault-injected link removals and heals) are
		// physical, not reported state: every region sees them immediately.
		sh.view.TopologyEpoch = snapshot.TopologyEpoch
		if exchange {
			copy(sh.view.Status, snapshot.Status)
		} else {
			for h := range s.shards {
				if s.adopt[h] == b {
					lo, hi := s.shards[h].lo, s.shards[h].hi
					copy(sh.view.Status[lo:hi], snapshot.Status[lo:hi])
				}
			}
		}

		// Deadlock notifications are uploaded by the stuck node, so each is
		// observed (exactly once) by the region currently serving the node —
		// the adopter, for an orphaned node mid-failover. The plane-level
		// edge detector keeps "exactly once" across hand-overs.
		for h := range s.shards {
			if s.adopt[h] != b {
				continue
			}
			for n := s.shards[h].lo; n < s.shards[h].hi; n++ {
				if sh.view.Status[n].Deadlocked {
					if !s.deadlockCounted[n] {
						s.deadlockCounted[n] = true
						rep.NewDeadlockReports++
					}
				} else {
					s.deadlockCounted[n] = false
				}
			}
		}

		// A change in the served node set (a block adopted or returned)
		// forces a recompute even if no status moved: the new nodes must get
		// this region's tables immediately.
		changed := s.regionChanged(sh, needLevels) || s.ownedChanged[b]

		// The modeled regional controller still runs the routing phases over
		// the full mesh (routes cross shard boundaries), so every recompute
		// is charged the same k-node computation as the centralized
		// controller's, even when the host copies another region's phase 2;
		// the modeled saving is in how rarely the visible state changes and
		// in downloading tables only to the region's own alive nodes.
		framePJ := tdma.ControllerFrameEnergyPJ(k, changed)
		downloadPJ := 0.0
		if changed {
			aliveInShard := 0
			for h := range s.shards {
				if s.adopt[h] != b {
					continue
				}
				for n := s.shards[h].lo; n < s.shards[h].hi; n++ {
					if sh.view.Status[n].Alive {
						aliveInShard++
					}
				}
			}
			downloadPJ = tdma.DownloadEnergyPerNodePJ() * float64(aliveInShard)
		}
		rep.ControllerPJ += framePJ
		rep.DownloadPJ += downloadPJ

		if err := sh.pool.ServeFrame(framePJ + downloadPJ); err != nil {
			// Every controller of the region is dead (only finite batteries
			// die). The region dies with its tables frozen: its nodes route
			// on the last downloaded generation from here on.
			sh.dead = true
			continue
		}
		sh.pool.RestAll(tdma.FramePeriodCycles)

		if changed || sh.tables == nil {
			full := sh.ws.Stats().Full
			plan := sh.ws.ComputeShared(s.deps.Algorithm, &sh.view, s.deps.Destinations, sh.tables, donor)
			if sh.ws.Stats().Full > full {
				donor = sh.ws
			}
			sh.tables = plan.Tables
			s.adoptView(sh)
			sh.recomputes++
			rep.Recomputed = true
		}
	}

	// The Sec 7.3 system death: every region is battery-dead.
	rep.ControllersDead = true
	for b := range s.shards {
		if !s.shards[b].dead {
			rep.ControllersDead = false
			break
		}
	}
	return rep
}

// reassignOwners recomputes the shard-failover assignment as a pure function
// of the current fault/death flags: every home block is served by its own
// region while that region is in service, and by the nearest in-service
// region (smallest index distance, ties to the lower index) while it is
// fault-down. Battery-dead regions neither hand over their nodes (frozen
// tables, the pre-failover contract) nor adopt anyone else's. The diff
// against the previous assignment becomes the report's Failovers list.
func (s *Sharded) reassignOwners(rep *FrameReport) {
	inService := func(b int) bool { return !s.shards[b].dead && !s.shards[b].faultDown }
	for b := range s.shards {
		s.ownedChanged[b] = false
		switch {
		case !s.shards[b].faultDown:
			s.adopt[b] = b
		default:
			best := b
			bestDist := len(s.shards) + 1
			for r := range s.shards {
				if !inService(r) {
					continue
				}
				d := r - b
				if d < 0 {
					d = -d
				}
				if d < bestDist {
					best, bestDist = r, d
				}
			}
			s.adopt[b] = best
		}
	}
	for h := range s.shards {
		if s.adopt[h] != s.prevAdopt[h] {
			sh := &s.shards[h]
			rep.Failovers = append(rep.Failovers, Failover{
				From: s.prevAdopt[h], To: s.adopt[h], Home: h, Nodes: sh.hi - sh.lo,
			})
			s.ownedChanged[s.adopt[h]] = true
			s.ownedChanged[s.prevAdopt[h]] = true
			for n := sh.lo; n < sh.hi; n++ {
				s.owner[n] = s.adopt[h]
			}
			s.prevAdopt[h] = s.adopt[h]
		}
		if s.adopt[h] != h {
			rep.Adopted += s.shards[h].hi - s.shards[h].lo
		}
	}
}

// regionChanged reports whether the region's current view differs from the
// view adopted at its last recompute in any way the algorithm cares about.
func (s *Sharded) regionChanged(sh *regionState, needLevels bool) bool {
	if !sh.hasLast || len(sh.last.Status) != len(sh.view.Status) {
		return true
	}
	if sh.last.TopologyEpoch != sh.view.TopologyEpoch {
		// A link vanished or healed since this region's last recompute.
		return true
	}
	for n, st := range sh.view.Status {
		prev := sh.last.Status[n]
		if st.Alive != prev.Alive || st.Deadlocked != prev.Deadlocked {
			return true
		}
		if needLevels && st.BatteryLevel != prev.BatteryLevel {
			return true
		}
	}
	return false
}

// adoptView records the region's current view as its last-recomputed
// reference, reusing the region-owned buffer; the engine's snapshot buffer is
// never retained.
func (s *Sharded) adoptView(sh *regionState) {
	if sh.last.Status == nil {
		sh.last = routing.SystemState{Graph: sh.view.Graph}
		sh.last.Status = make([]routing.NodeStatus, len(sh.view.Status))
	}
	sh.last.TopologyEpoch = sh.view.TopologyEpoch
	copy(sh.last.Status, sh.view.Status)
	sh.hasLast = true
}

// ownerOf returns the region currently serving node — its home region, or
// its adopter while the home region is fault-down — or nil for out-of-range
// IDs.
func (s *Sharded) ownerOf(node topology.NodeID) *regionState {
	if int(node) < 0 || int(node) >= len(s.owner) {
		return nil
	}
	return &s.shards[s.owner[node]]
}

// NextHop returns the next hop from `from` towards `dest`, or
// topology.Invalid if unknown. The relay decision at `from` is made by
// from's own region's tables.
func (s *Sharded) NextHop(from, dest topology.NodeID) topology.NodeID {
	sh := s.ownerOf(from)
	if sh == nil {
		return topology.Invalid
	}
	return sh.tables.NextHop(from, dest)
}

// RouteTo returns the route downloaded to node for the given module.
func (s *Sharded) RouteTo(node topology.NodeID, id app.ModuleID) (routing.Route, bool) {
	sh := s.ownerOf(node)
	if sh == nil {
		return routing.Route{}, false
	}
	return sh.tables.RouteTo(node, id)
}

// Shards returns the number of regional controllers (1 for centralized).
func (s *Sharded) Shards() int { return len(s.shards) }

// RecomputeCount returns how many times region `shard` re-ran the routing
// algorithm so far.
func (s *Sharded) RecomputeCount(shard int) int { return s.shards[shard].recomputes }

// RecomputeSplit reports the recompute policy's decisions so far, summed
// across regions: recomputes sent to the full pass vs incremental
// dirty-set repairs. A full decision counts once per region even when its
// phase 2 was copied from another region (see routing.DeltaStats.Shared).
func (s *Sharded) RecomputeSplit() (full, incremental int) {
	for b := range s.shards {
		stats := s.shards[b].ws.Stats()
		full += stats.Full
		incremental += stats.Incremental
	}
	return full, incremental
}

// FaultRegion opens (down = true) or closes (down = false) a runtime fault
// window on region `shard`, injected by the engine's fault schedule. A
// fault-down region stops serving frames and its pool rests. The next Frame
// call hands its nodes to the nearest in-service region until the window
// closes; when no region is in service (always, for the one-region
// centralized plane), they keep routing on its last-known-good tables.
// Distinct from battery death, which is permanent and never fails over.
func (s *Sharded) FaultRegion(shard int, down bool) {
	if shard >= 0 && shard < len(s.shards) {
		s.shards[shard].faultDown = down
	}
}
