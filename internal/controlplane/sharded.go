package controlplane

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/routing"
	"repro/internal/tdma"
	"repro/internal/topology"
)

// regionState is one regional controller's private world: the contiguous node
// range it owns, its (possibly stale) full-mesh view of the reported status,
// the view it adopted at its last recompute, and its own routing workspace and
// table generation.
type regionState struct {
	lo, hi int // home node range [lo, hi)

	view    routing.SystemState // current belief about the whole mesh
	last    routing.SystemState // view adopted at the last recompute
	hasLast bool

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
	kind      Kind // reported by Name; New sets KindCentralized
	staleness int
	finite    bool

	regions *tdma.Regions
	shards  []regionState
	home    []int // NodeID -> home shard index (static partition)
	owner   []int // NodeID -> serving shard index (== home unless failed over)

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

// NewSharded builds a sharded control plane with the given region count and
// summary-exchange period (in frames; 1 = exchange every frame).
func NewSharded(deps Deps, shards, staleness int) (*Sharded, error) {
	k := deps.Graph.NodeCount()
	if shards < 1 {
		return nil, fmt.Errorf("controlplane: sharded plane needs at least one shard, got %d", shards)
	}
	if shards > k {
		return nil, fmt.Errorf("controlplane: %d shards exceed the %d-node platform", shards, k)
	}
	if staleness < 1 {
		return nil, fmt.Errorf("controlplane: staleness bound must be at least one frame, got %d", staleness)
	}
	regions, err := tdma.NewRegions(shards, deps.Controllers, deps.ControllerPower, deps.ControllerBattery)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		deps:            deps,
		kind:            KindSharded,
		staleness:       staleness,
		finite:          deps.ControllerBattery != nil,
		regions:         regions,
		shards:          make([]regionState, shards),
		home:            make([]int, k),
		owner:           make([]int, k),
		adopt:           make([]int, shards),
		prevAdopt:       make([]int, shards),
		ownedChanged:    make([]bool, shards),
		deadlockCounted: make([]bool, k),
	}
	for b := range s.shards {
		lo, hi := b*k/shards, (b+1)*k/shards
		// Per-region delta workspaces: each region diffs against its own
		// previous weight matrix, so between exchange frames a region's
		// recompute dirties only the vertices its fresh local reports
		// actually moved, and an exchange frame dirties only the remote
		// vertices whose summaries changed.
		ws := routing.NewDeltaWorkspace()
		ws.SetMode(deps.Recompute)
		s.shards[b] = regionState{lo: lo, hi: hi, ws: ws}
		s.adopt[b], s.prevAdopt[b] = b, b
		for n := lo; n < hi; n++ {
			s.home[n] = b
			s.owner[n] = b
		}
	}
	return s, nil
}

// Name implements ControlPlane.
func (s *Sharded) Name() string { return string(s.kind) }

// Frame implements ControlPlane: one controller frame for every living
// region, in shard order for determinism.
func (s *Sharded) Frame(frame int64, aliveNodes int, snapshot *routing.SystemState) FrameReport {
	var rep FrameReport
	s.reassignOwners(&rep)
	// Summary-exchange frames: the first frame always synchronises (every
	// region must learn the initial state), then every staleness-th frame
	// after it.
	exchange := (frame-1)%int64(s.staleness) == 0
	k := s.deps.Graph.NodeCount()
	needLevels := s.deps.Algorithm.NeedsBatteryInfo()

	for b := range s.shards {
		sh := &s.shards[b]
		if sh.dead {
			continue
		}
		if sh.faultDown {
			// Kill window: the region serves nothing; its batteries recover
			// while the pool is off. Its nodes were handed to an in-service
			// region by reassignOwners above.
			s.regions.Pool(b).RestAll(s.deps.TDMA.FramePeriodCycles)
			continue
		}
		// Refresh the region's view: the shards it currently serves (its own,
		// plus any adopted home blocks) every frame — a serving region hears
		// the upload slots of every node it owns — and the rest of the mesh
		// only on exchange frames.
		if sh.view.Status == nil {
			sh.view = routing.SystemState{Graph: snapshot.Graph, Levels: snapshot.Levels}
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

		// The regional controller still runs the routing phases over the full
		// mesh (routes cross shard boundaries), so a recompute costs the same
		// k-node computation as the centralized controller's; the saving is in
		// how rarely the visible state changes and in downloading tables only
		// to the region's own alive nodes.
		framePJ := s.deps.TDMA.ControllerFrameEnergyPJ(s.deps.ControllerPower, k, changed)
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
			downloadPJ = s.deps.TDMA.DownloadEnergyPerNodePJ() * float64(aliveInShard)
		}
		rep.ControllerPJ += framePJ
		rep.DownloadPJ += downloadPJ

		pool := s.regions.Pool(b)
		if err := pool.ServeFrame(framePJ+downloadPJ, 0); err != nil {
			if errors.Is(err, tdma.ErrAllControllersDead) && s.finite {
				// The region dies with its tables frozen: its nodes route on
				// the last downloaded generation from here on.
				sh.dead = true
				continue
			}
		}
		pool.RestAll(s.deps.TDMA.FramePeriodCycles)

		if changed || sh.tables == nil {
			plan := sh.ws.ComputeInto(s.deps.Algorithm, &sh.view, s.deps.Destinations, sh.tables)
			sh.tables = plan.Tables
			s.adoptView(sh)
			sh.recomputes++
			rep.Recomputed = true
			rep.ShardRecomputes++
		}
	}

	if s.finite && s.regions.AllDead() {
		rep.ControllersDead = true
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
		sh.last = routing.SystemState{Graph: sh.view.Graph, Levels: sh.view.Levels}
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

// Table implements ControlPlane: each node uses the tables its own region last
// downloaded (nil-safe before a region's first recompute).
func (s *Sharded) Table(node topology.NodeID) (routing.Table, bool) {
	sh := s.ownerOf(node)
	if sh == nil {
		return routing.Table{}, false
	}
	return sh.tables.Table(node)
}

// NextHop implements ControlPlane. The relay decision at `from` is made by
// from's own region's tables.
func (s *Sharded) NextHop(from, dest topology.NodeID) topology.NodeID {
	sh := s.ownerOf(from)
	if sh == nil {
		return topology.Invalid
	}
	return sh.tables.NextHop(from, dest)
}

// RouteTo implements ControlPlane.
func (s *Sharded) RouteTo(node topology.NodeID, id app.ModuleID) (routing.Route, bool) {
	sh := s.ownerOf(node)
	if sh == nil {
		return routing.Route{}, false
	}
	return sh.tables.RouteTo(node, id)
}

// Shards implements ControlPlane.
func (s *Sharded) Shards() int { return len(s.shards) }

// AliveShards implements ControlPlane.
func (s *Sharded) AliveShards() int { return s.regions.AliveShards() }

// RecomputeCount implements ControlPlane.
func (s *Sharded) RecomputeCount(shard int) int { return s.shards[shard].recomputes }

// ShardConsumedPJ implements ControlPlane.
func (s *Sharded) ShardConsumedPJ(shard int) float64 { return s.regions.ConsumedPJ(shard) }

// RecomputeSplit implements ControlPlane, summed across regions.
func (s *Sharded) RecomputeSplit() (full, incremental int) {
	for b := range s.shards {
		stats := s.shards[b].ws.Stats()
		full += stats.Full
		incremental += stats.Incremental
	}
	return full, incremental
}

// FaultRegion implements ControlPlane: it opens or closes a runtime kill
// window on one region. The next Frame call reassigns the region's nodes to
// the nearest in-service region (down) or back home (up).
func (s *Sharded) FaultRegion(shard int, down bool) {
	if shard >= 0 && shard < len(s.shards) {
		s.shards[shard].faultDown = down
	}
}

// ServingRegion returns the index of the region currently serving node
// (exposed for tests and the degradation metrics).
func (s *Sharded) ServingRegion(node topology.NodeID) int {
	if int(node) < 0 || int(node) >= len(s.owner) {
		return -1
	}
	return s.owner[node]
}

// Regions exposes the per-shard controller pools for tests and statistics.
func (s *Sharded) Regions() *tdma.Regions { return s.regions }

// OwnedRange returns the contiguous home node range [lo, hi) of shard (the
// static partition; runtime failover may temporarily serve it from another
// region).
func (s *Sharded) OwnedRange(shard int) (lo, hi int) {
	return s.shards[shard].lo, s.shards[shard].hi
}

// StalenessFrames returns the summary-exchange period.
func (s *Sharded) StalenessFrames() int { return s.staleness }
