package sim

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/aes"
	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/topology"
)

// stalledFrameLimit is the number of consecutive TDMA frames without any job
// progress after which the simulator declares the system unable to make
// progress. It is a safety net against pathological configurations; the
// paper's scenarios never hit it.
const stalledFrameLimit = 64

// nodeState is the runtime state of one mesh node.
type nodeState struct {
	id       topology.NodeID
	module   app.ModuleID
	battery  battery.Battery
	lastRest int64
	dead     bool
	// crashed marks a runtime fault window (Config.Faults): the node stops
	// computing, relaying and reporting but its battery survives and rests,
	// and it resumes when the window closes. Distinct from dead, which is
	// permanent and counts toward module extinction.
	crashed bool

	resident  int   // jobs currently buffered at this node
	busyUntil int64 // the node's compute resource is occupied until this cycle

	ops     int
	relayed int
	compPJ  float64
	commPJ  float64
	ctrlPJ  float64
}

// down reports whether the node is currently unable to participate in the
// mesh, for any reason (battery death or a runtime crash window).
func (n *nodeState) down() bool { return n.dead || n.crashed }

// jobPhase is the state of a job's miniature state machine.
type jobPhase int

const (
	phaseRoute          jobPhase = iota // needs a destination for its next operation
	phaseMoving                         // packet in flight on a link
	phaseWaitingBuffer                  // next hop has no buffer space
	phaseWaitingCompute                 // waiting for the destination node's compute resource
	phaseWaitingRoute                   // no valid route yet (stale tables or dead duplicates)
	phaseComputing                      // operation executing
)

// jobState is one in-flight job.
type jobState struct {
	id          int
	at          topology.NodeID
	pendingNext topology.NodeID
	dest        topology.NodeID
	opIdx       int
	phase       jobPhase
	readyAt     int64
	hopsThisLeg int
	blockedAt   int64 // cycle at which the job became blocked, -1 if not blocked

	hasPayload bool
	state      aes.State
	plaintext  [aes.BlockSize]byte
}

// Simulator is one instance of et_sim. Construct it with New and execute it
// with Run; a Simulator is single-use.
type Simulator struct {
	cfg   Config
	graph *topology.Graph

	nodes        []*nodeState
	jobs         []*jobState
	destinations map[app.ModuleID][]topology.NodeID

	// plane is the control plane: everything between the upload and download
	// phases of a TDMA frame (snapshot adoption, the recompute decision, table
	// production, controller energy and liveness) lives behind this interface.
	// buildSnapshot refills the one snapshot buffer every frame (the plane
	// never retains it), so steady-state frames allocate nothing.
	plane   controlplane.ControlPlane
	snap    routing.SystemState
	blocked []bool // per-node deadlock scratch for buildSnapshot

	pipeline *aes.Pipeline
	cipher   *aes.Cipher

	// faultRuntime executes Config.Faults against the engine's private graph
	// clone; nil when the schedule is empty, in which case every fault path
	// below is skipped and the engine is byte-identical to one without the
	// subsystem. topoEpoch counts runtime graph mutations and is stamped into
	// each snapshot so the control planes recompute on shape changes.
	faultRuntime *faults.Runtime
	topoEpoch    uint64

	now          int64
	nextFrame    int64
	frameCount   int64
	jobCounter   int
	stalledSince int64 // frame count at the last observed progress
	// lastCompletion is the node at which the most recent job finished; the
	// next job enters the system there ("a new job is launched when the
	// previous one is completed", Sec 7.1).
	lastCompletion topology.NodeID

	res          Result
	dead         bool
	finishReason DeathReason
	cancel       <-chan struct{}

	// acct is the built-in result observer; observers holds the externally
	// attached ones from Config.Observers (nil in the common case).
	acct      resultObserver
	observers []Observer

	// phaseObs holds the Config.Observers entries that also implement
	// PhaseObserver; when empty (the common case) the frame loop never reads
	// the wall clock. spanEpoch anchors the run's span clock (set lazily on
	// the first measurement); lastFrameEndNS is the span-clock reading at the
	// end of the previous frame (-1 before the first), from which the
	// PhaseSchedule gap spans are derived.
	phaseObs       []PhaseObserver
	spanEpoch      time.Time
	lastFrameEndNS int64

	// Reusable scratch buffers for the hot loops, so steady-state simulation
	// does not allocate. iterScratch backs the job snapshots taken by Run and
	// settle (which never overlap); killScratch backs killNode's snapshot,
	// which can be taken while an iterScratch snapshot is live. reachSeen,
	// reachTargets and reachQueue back the BFS in reachableDuplicate.
	iterScratch  []*jobState
	killScratch  []*jobState
	reachSeen    []bool
	reachTargets []bool
	reachQueue   []topology.NodeID
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:            cfg,
		graph:          cfg.Graph,
		destinations:   make(map[app.ModuleID][]topology.NodeID),
		lastCompletion: topology.Invalid,
		cancel:         cfg.Cancel,
	}
	if cfg.Faults.Enabled() {
		// Fault injection mutates the topology at frame boundaries; the engine
		// works on a private clone so the caller's graph (often shared across a
		// sweep) is never touched.
		s.graph = cfg.Graph.Clone()
	}
	s.res.Algorithm = cfg.Algorithm.Name()
	s.res.MeshNodes = cfg.Graph.NodeCount()
	s.acct = resultObserver{res: &s.res}
	for _, o := range cfg.Observers {
		if o != nil {
			s.observers = append(s.observers, o)
			if po, ok := o.(PhaseObserver); ok {
				s.phaseObs = append(s.phaseObs, po)
			}
		}
	}
	s.lastFrameEndNS = -1

	k := s.graph.NodeCount()
	s.nodes = make([]*nodeState, k)
	for _, n := range s.graph.Nodes() {
		s.nodes[n.ID] = &nodeState{
			id:      n.ID,
			module:  cfg.Mapping.ModuleAt(n.ID),
			battery: cfg.NodeBattery(),
		}
	}
	for _, m := range cfg.App.Modules {
		s.destinations[m.ID] = cfg.Mapping.NodesFor(m.ID)
	}

	plane, err := controlplane.New(cfg.Control, controlplane.Deps{
		Graph:             s.graph,
		Algorithm:         cfg.Algorithm,
		Destinations:      s.destinations,
		TDMA:              cfg.TDMA,
		Controllers:       cfg.Controllers,
		ControllerPower:   cfg.ControllerPower,
		ControllerBattery: cfg.ControllerBattery,
	})
	if err != nil {
		return nil, err
	}
	s.plane = plane
	s.res.ControlPlane = plane.Name()
	if cfg.Faults.Enabled() {
		s.faultRuntime = faults.New(cfg.Faults, s.graph, plane.Shards())
	}

	if cfg.Key != nil {
		pipeline, err := aes.NewPipeline(cfg.Key)
		if err != nil {
			return nil, err
		}
		if pipeline.NumSteps() != cfg.App.OperationsPerJob() {
			return nil, fmt.Errorf("sim: application flow (%d ops) does not match the AES pipeline (%d steps); payload verification requires an application built by app.AES",
				cfg.App.OperationsPerJob(), pipeline.NumSteps())
		}
		cipher, err := aes.NewCipher(cfg.Key)
		if err != nil {
			return nil, err
		}
		s.pipeline = pipeline
		s.cipher = cipher
	}
	return s, nil
}

// Run executes the simulation until the target system dies (or the cycle
// budget runs out) and returns the result.
func (s *Simulator) Run() Result {
	// Frame 0 establishes the initial routing tables before any job moves.
	s.processFrame()
	s.nextFrame = s.cfg.TDMA.FramePeriodCycles
	for len(s.jobs) < s.cfg.ConcurrentJobs {
		s.injectJob()
	}

	for !s.dead {
		if s.cancelled() {
			s.finish(DeathCancelled)
			break
		}
		s.settle()
		if s.dead {
			break
		}
		next := s.nextFrame
		for _, j := range s.jobs {
			if (j.phase == phaseMoving || j.phase == phaseComputing) && j.readyAt < next {
				next = j.readyAt
			}
		}
		if s.cfg.MaxCycles > 0 && next > s.cfg.MaxCycles {
			s.finish(DeathMaxCycles)
			break
		}
		s.now = next
		s.iterScratch = append(s.iterScratch[:0], s.jobs...)
		for _, j := range s.iterScratch {
			if s.dead {
				break
			}
			if (j.phase == phaseMoving || j.phase == phaseComputing) && j.readyAt <= s.now {
				s.completeTimed(j)
			}
		}
		for !s.dead && s.now >= s.nextFrame {
			s.processFrame()
			s.nextFrame += s.cfg.TDMA.FramePeriodCycles
			if s.frameCount-s.stalledSince > stalledFrameLimit {
				s.finish(DeathStalled)
			}
		}
	}
	if s.timing() && s.lastFrameEndNS >= 0 {
		// Close the trailing scheduling gap: time between the last control
		// frame and the run's end (final job drains, the death cascade).
		s.emitPhaseSpan(PhaseSchedule, s.lastFrameEndNS, s.spanNow())
		s.lastFrameEndNS = -1
	}
	// RunFinished is emitted here, not inside finish: death can strike in
	// the middle of a frame or of a cascade of job losses, and deferring the
	// terminal event until the engine has fully unwound guarantees observers
	// see it strictly after every other event. Neither the clock nor the
	// frame counter advances once s.dead is set, so the values match the
	// moment of death.
	s.emitRunFinished(FinishEvent{
		Now: s.now, Frame: s.frameCount, Reason: s.finishReason, JobsInFlight: len(s.jobs),
	})
	return s.res
}

// cancelled reports whether the caller has asked the run to stop. It is a
// non-blocking poll of Config.Cancel, checked once per scheduling iteration —
// cheap next to a frame's worth of simulation, and prompt enough that an
// abandoned run stops within one event's processing.
func (s *Simulator) cancelled() bool {
	if s.cancel == nil {
		return false
	}
	select {
	case <-s.cancel:
		return true
	default:
		return false
	}
}

// finish marks the run as terminated. The termination reason, lifetime and
// frame count land in the result through the built-in observer's RunFinished
// hook, emitted at the end of Run; only the end-of-life battery autopsy
// (stranded energy, per-node statistics) is computed here, because it needs
// the engine's internal node state.
func (s *Simulator) finish(reason DeathReason) {
	if s.dead {
		return
	}
	s.dead = true
	s.finishReason = reason
	if s.plane != nil && s.plane.Shards() > 1 {
		s.res.ShardRecomputes = make([]int, s.plane.Shards())
		for i := range s.res.ShardRecomputes {
			s.res.ShardRecomputes[i] = s.plane.RecomputeCount(i)
		}
	}
	if s.plane != nil {
		s.res.FullRecomputes, s.res.IncrementalRecomputes = s.plane.RecomputeSplit()
	}
	for _, n := range s.nodes {
		if n.dead {
			s.res.Energy.WastedPJ += n.battery.RemainingPJ()
		}
	}
	if s.cfg.CollectNodeStats {
		s.res.Nodes = make([]NodeStats, 0, len(s.nodes))
		for _, n := range s.nodes {
			s.res.Nodes = append(s.res.Nodes, NodeStats{
				Node:            n.id,
				Module:          int(n.module),
				Operations:      n.ops,
				PacketsRelayed:  n.relayed,
				ComputationPJ:   n.compPJ,
				CommunicationPJ: n.commPJ,
				ControlPJ:       n.ctrlPJ,
				Dead:            n.dead,
				DeliveredPJ:     n.battery.DeliveredPJ(),
				RemainingPJ:     n.battery.RemainingPJ(),
			})
		}
	}
}

// progress marks that some job made forward progress (used by the stall
// detector).
func (s *Simulator) progress() { s.stalledSince = s.frameCount }

// restNode lets a node's battery recover up to the current cycle.
func (s *Simulator) restNode(n *nodeState) {
	if s.now > n.lastRest {
		n.battery.Rest(s.now - n.lastRest)
		n.lastRest = s.now
	}
}

// drawNode draws energy from a node's battery, returning false (and handling
// the node's death) if the battery cannot supply it.
func (s *Simulator) drawNode(n *nodeState, amountPJ float64) bool {
	if n.dead {
		return false
	}
	s.restNode(n)
	before := n.battery.DeliveredPJ()
	if err := n.battery.Draw(amountPJ); err != nil {
		// Whatever the battery delivered before browning out was consumed but
		// produced no useful work.
		s.emitEnergyAborted(EnergyEvent{Now: s.now, Node: n.id, EnergyPJ: n.battery.DeliveredPJ() - before})
		s.killNode(n)
		return false
	}
	return true
}

// killNode marks a node dead, abandons any jobs it holds and checks the
// system-death condition.
func (s *Simulator) killNode(n *nodeState) {
	if n.dead {
		return
	}
	n.dead = true
	s.emitNodeDied(NodeEvent{Now: s.now, Node: n.id})
	s.killScratch = append(s.killScratch[:0], s.jobs...)
	for _, j := range s.killScratch {
		if j.at == n.id || j.pendingNext == n.id {
			s.loseJob(j)
		}
	}
	if s.moduleExtinct() {
		s.finish(DeathModuleExtinct)
	}
}

// moduleExtinct reports whether some module has no living duplicate left —
// the paper's "critical nodes are dead" condition.
func (s *Simulator) moduleExtinct() bool {
	for _, m := range s.cfg.App.Modules {
		alive := false
		for _, id := range s.destinations[m.ID] {
			if !s.nodes[id].dead {
				alive = true
				break
			}
		}
		if !alive {
			return true
		}
	}
	return false
}

// injectionPoint returns the node at which new jobs enter the system. The
// first job enters at the configured source (the sensor/actuator attachment
// point of Fig 3a); each subsequent job enters at the node where the previous
// job completed, matching the paper's "a new job is launched when the
// previous one is completed". If that node has died, the job enters at the
// living node closest to the source instead.
func (s *Simulator) injectionPoint() topology.NodeID {
	if s.lastCompletion != topology.Invalid && !s.nodes[s.lastCompletion].down() {
		return s.lastCompletion
	}
	if !s.nodes[s.cfg.Source].down() {
		return s.cfg.Source
	}
	srcPos := s.graph.Coordinate(s.cfg.Source)
	best := topology.Invalid
	bestDist := int(^uint(0) >> 1)
	for _, n := range s.nodes {
		if n.down() {
			continue
		}
		d := srcPos.Manhattan(s.graph.Coordinate(n.id))
		if d < bestDist || (d == bestDist && n.id < best) {
			best = n.id
			bestDist = d
		}
	}
	return best
}

// injectJob launches a new job at the injection point.
func (s *Simulator) injectJob() {
	at := s.injectionPoint()
	if at == topology.Invalid {
		s.finish(DeathModuleExtinct)
		return
	}
	j := &jobState{
		id:          s.jobCounter,
		at:          at,
		pendingNext: topology.Invalid,
		dest:        topology.Invalid,
		phase:       phaseRoute,
		blockedAt:   -1,
	}
	s.jobCounter++
	if s.pipeline != nil {
		// The plaintext block is a fixed-size array filled in place, so the
		// state conversion cannot fail (the old aes.LoadState error path was
		// unreachable but, when silently swallowed, would have surfaced much
		// later as a misleading PayloadMismatch).
		j.hasPayload = true
		binary.BigEndian.PutUint64(j.plaintext[8:], uint64(j.id))
		j.state = aes.State(j.plaintext)
	}
	s.nodes[j.at].resident++
	s.jobs = append(s.jobs, j)
	s.emitJobInjected(JobEvent{Now: s.now, Job: j.id, Node: j.at})
}

// removeJob drops a job from the active list and releases its buffer slots.
func (s *Simulator) removeJob(j *jobState) {
	s.nodes[j.at].resident--
	if j.pendingNext != topology.Invalid {
		s.nodes[j.pendingNext].resident--
	}
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
}

// loseJob abandons a job (its packet was stranded on a dead node) and injects
// a replacement so the offered load stays constant.
func (s *Simulator) loseJob(j *jobState) {
	at := j.at
	s.removeJob(j)
	s.emitJobLost(JobEvent{Now: s.now, Job: j.id, Node: at})
	if !s.dead {
		s.injectJob()
	}
}

// completeJob finishes a job, verifying the distributed payload if enabled.
func (s *Simulator) completeJob(j *jobState) {
	s.lastCompletion = j.at
	s.removeJob(j)
	payload := PayloadNone
	if j.hasPayload && s.cipher != nil {
		var want [aes.BlockSize]byte
		if err := s.cipher.Encrypt(want[:], j.plaintext[:]); err == nil {
			if j.state.Bytes() == want {
				payload = PayloadVerified
			} else {
				payload = PayloadMismatch
			}
		}
	}
	s.emitJobCompleted(JobEvent{Now: s.now, Job: j.id, Node: j.at, Payload: payload})
	s.progress()
	if !s.dead {
		s.injectJob()
	}
}

// settle repeatedly advances every job that can act at the current cycle
// until no more immediate progress is possible.
func (s *Simulator) settle() {
	for moved := true; moved && !s.dead; {
		moved = false
		s.iterScratch = append(s.iterScratch[:0], s.jobs...)
		for _, j := range s.iterScratch {
			if s.dead {
				return
			}
			switch j.phase {
			case phaseRoute, phaseWaitingRoute:
				if s.resolveRoute(j) {
					moved = true
				}
			case phaseWaitingBuffer:
				if s.startHop(j) {
					moved = true
				}
			case phaseWaitingCompute:
				if s.startCompute(j) {
					moved = true
				}
			}
		}
	}
}

// resolveRoute determines the destination for the job's next operation and
// begins moving or computing. It returns true if the job changed state.
func (s *Simulator) resolveRoute(j *jobState) bool {
	module := s.cfg.App.Flow[j.opIdx]
	table, ok := s.plane.Table(j.at)
	if !ok {
		return s.block(j, phaseWaitingRoute)
	}
	route, ok := table.RouteTo(module)
	if !ok || !route.Valid() || s.nodes[route.Dest].down() {
		// The tables may be stale; if no living duplicate is physically
		// reachable any more the system is partitioned and dies.
		if s.moduleExtinct() {
			s.finish(DeathModuleExtinct)
			return false
		}
		if !s.reachableDuplicate(j.at, module) {
			if s.faultRuntime != nil && s.faultRuntime.RecoveryPending() {
				// The partition (or the crashed duplicate) is a fault window
				// with a scheduled recovery: degrade gracefully and let the
				// job wait it out instead of declaring the system dead.
				return s.block(j, phaseWaitingRoute)
			}
			s.finish(DeathUnreachable)
			return false
		}
		return s.block(j, phaseWaitingRoute)
	}
	j.dest = route.Dest
	j.hopsThisLeg = 0
	if j.dest == j.at {
		j.phase = phaseWaitingCompute
		j.blockedAt = -1
		return s.startCompute(j)
	}
	j.phase = phaseWaitingBuffer
	j.blockedAt = -1
	return s.startHop(j)
}

// reachableDuplicate reports whether any living duplicate of the module is
// reachable from the given node across living nodes only. It runs on the
// simulator's reusable scratch buffers, so repeated routing failures do not
// allocate.
func (s *Simulator) reachableDuplicate(from topology.NodeID, module app.ModuleID) bool {
	if s.nodes[from].down() {
		return false
	}
	if s.reachSeen == nil {
		k := s.graph.NodeCount()
		s.reachSeen = make([]bool, k)
		s.reachTargets = make([]bool, k)
	}
	seen, targets := s.reachSeen, s.reachTargets
	for i := range seen {
		seen[i] = false
		targets[i] = false
	}
	anyTarget := false
	for _, id := range s.destinations[module] {
		if !s.nodes[id].down() {
			targets[id] = true
			anyTarget = true
		}
	}
	if !anyTarget {
		return false
	}
	if targets[from] {
		return true
	}
	seen[from] = true
	queue := append(s.reachQueue[:0], from)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		cur := queue[head]
		for _, nb := range s.graph.Neighbors(cur) {
			if seen[nb] || s.nodes[nb].down() {
				continue
			}
			if targets[nb] {
				found = true
				break
			}
			seen[nb] = true
			queue = append(queue, nb)
		}
	}
	s.reachQueue = queue
	return found
}

// block parks a job in a waiting phase, recording when it became blocked for
// deadlock detection. It always returns false (no forward progress).
func (s *Simulator) block(j *jobState, phase jobPhase) bool {
	if j.blockedAt < 0 {
		j.blockedAt = s.now
	}
	j.phase = phase
	return false
}

// startHop attempts to transmit the job's packet towards its destination. It
// returns true if the hop started.
func (s *Simulator) startHop(j *jobState) bool {
	cur := s.nodes[j.at]
	if cur.dead {
		s.loseJob(j)
		return false
	}
	next := j.dest
	if next != j.at {
		if hop := s.plane.NextHop(j.at, j.dest); hop != topology.Invalid {
			next = hop
		} else if route, ok := s.plane.RouteTo(j.at, s.cfg.App.Flow[j.opIdx]); ok && route.Valid() && route.Dest == j.dest {
			next = route.NextHop
		} else {
			return s.block(j, phaseWaitingRoute)
		}
	}
	nextNode := s.nodes[next]
	if nextNode.down() {
		return s.block(j, phaseWaitingRoute)
	}
	if nextNode.resident >= s.cfg.NodeBufferJobs {
		return s.block(j, phaseWaitingBuffer)
	}
	link, ok := s.graph.Link(j.at, next)
	if !ok {
		if s.faultRuntime != nil {
			// The link was just faulted out from under a still-stale table;
			// wait for the epoch-triggered recompute (or the link's recovery)
			// rather than declaring a partition.
			return s.block(j, phaseWaitingRoute)
		}
		// Routing produced a next hop that is not a physical neighbour; this
		// indicates a corrupted table and is treated as a partition.
		s.finish(DeathUnreachable)
		return false
	}
	cost := s.cfg.Line.PacketEnergyPJ(link.LengthCM, s.cfg.App.PacketBits)
	if !s.drawNode(cur, cost) {
		return false // node died mid-transmission; killNode already handled the job
	}
	cur.commPJ += cost
	if s.faultRuntime != nil {
		s.faultRuntime.RecordHop(j.at, next)
	}
	relayed := j.hopsThisLeg > 0
	s.emitHopStarted(HopEvent{Now: s.now, Job: j.id, From: j.at, To: next, EnergyPJ: cost, Relayed: relayed})
	if relayed {
		cur.relayed++
	}
	j.hopsThisLeg++
	nextNode.resident++
	j.pendingNext = next
	j.phase = phaseMoving
	j.readyAt = s.now + s.cfg.HopCycles()
	j.blockedAt = -1
	return true
}

// startCompute attempts to begin the job's next operation at its destination
// node. It returns true if computation started.
func (s *Simulator) startCompute(j *jobState) bool {
	n := s.nodes[j.at]
	if n.dead {
		s.loseJob(j)
		return false
	}
	if n.busyUntil > s.now {
		return s.block(j, phaseWaitingCompute)
	}
	module, err := s.cfg.App.Module(s.cfg.App.Flow[j.opIdx])
	if err != nil {
		s.finish(DeathUnreachable)
		return false
	}
	if !s.drawNode(n, module.EnergyPerOpPJ) {
		return false
	}
	n.compPJ += module.EnergyPerOpPJ
	n.ops++
	s.emitOperationStarted(OperationEvent{
		Now: s.now, Job: j.id, Node: n.id, Module: module.ID, OpIndex: j.opIdx, EnergyPJ: module.EnergyPerOpPJ,
	})
	j.phase = phaseComputing
	j.readyAt = s.now + int64(s.cfg.ComputeCyclesPerOp)
	n.busyUntil = j.readyAt
	j.blockedAt = -1
	return true
}

// completeTimed finishes a hop or an operation whose latency elapsed.
func (s *Simulator) completeTimed(j *jobState) {
	switch j.phase {
	case phaseMoving:
		s.nodes[j.at].resident--
		from := j.at
		j.at = j.pendingNext
		j.pendingNext = topology.Invalid
		s.emitHopFinished(HopEvent{Now: s.now, Job: j.id, From: from, To: j.at})
		s.progress()
		if s.nodes[j.at].dead {
			s.loseJob(j)
			return
		}
		if j.at == j.dest {
			j.phase = phaseWaitingCompute
			s.startCompute(j)
		} else {
			j.phase = phaseWaitingBuffer
			s.startHop(j)
		}
	case phaseComputing:
		if j.hasPayload && s.pipeline != nil {
			// ApplyInPlace leaves the state untouched on error, matching the
			// old value-returning behaviour.
			_ = s.pipeline.ApplyInPlace(&j.state, j.opIdx)
		}
		j.opIdx++
		s.progress()
		if j.opIdx >= len(s.cfg.App.Flow) {
			s.completeJob(j)
			return
		}
		j.phase = phaseRoute
		s.resolveRoute(j)
	}
}
