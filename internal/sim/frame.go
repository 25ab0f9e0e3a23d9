package sim

import (
	"repro/internal/battery"
	"repro/internal/routing"
	"repro/internal/tdma"
)

// processFrame executes one TDMA control frame at the current cycle: nodes
// upload their status, then the control plane adopts the snapshot, re-runs
// the routing algorithm where the reported information changed, and downloads
// new routing tables.
// The frame's energy and control counters are written to the result as they
// are charged, so a partial frame (the system dying mid-frame) is accounted
// up to the point of death; every return path still emits FrameProcessed.
func (s *Simulator) processFrame() {
	if s.dead {
		return
	}
	s.frameCount++
	frame := FrameEvent{Now: s.now, Frame: s.frameCount}

	// The span clock is live only when a PhaseObserver is attached; every
	// timed section below is gated on this one bool, so an uninstrumented
	// frame performs no clock reads. The measurements are observational
	// only — nothing here feeds back into scheduling or accounting.
	timing := s.timing()
	var mark int64
	if timing {
		mark = s.beginFrameSpans()
		defer func() { s.lastFrameEndNS = s.spanNow() }()
	}

	if s.faultRuntime != nil {
		// Fault transitions land at the frame boundary, before the upload
		// phase, so the snapshot below already reflects them (crashed nodes
		// report nothing; link changes bump the topology epoch).
		s.applyFaults()
		if timing {
			end := s.spanNow()
			s.emitPhaseSpan(PhaseFaults, mark, end)
			mark = end
		}
		if s.dead {
			s.emitFrameProcessed(frame)
			return
		}
	}

	// Upload energy is summed over the frame and added to the result once,
	// so the result's float grouping is one term per frame.
	uploadPJ := tdma.UploadEnergyPerNodePJ()
	uploaded := 0.0
	for _, n := range s.nodes {
		if n.down() {
			continue
		}
		s.restNode(n)
		if !s.drawNode(n, uploadPJ) {
			continue
		}
		n.ctrlPJ += uploadPJ
		uploaded += uploadPJ
	}
	s.res.Energy.ControlUploadPJ += uploaded
	if s.dead {
		if timing {
			s.emitPhaseSpan(PhaseSnapshot, mark, s.spanNow())
		}
		s.emitFrameProcessed(frame)
		return
	}

	snapshot := s.buildSnapshot()
	aliveCount := 0
	for _, n := range s.nodes {
		if !n.down() {
			aliveCount++
		}
	}
	frame.AliveNodes = aliveCount
	var fullBefore, incrBefore int
	if timing {
		end := s.spanNow()
		s.emitPhaseSpan(PhaseSnapshot, mark, end)
		mark = end
		// RecomputeSplit is a read-only cumulative counter pair; sampling it
		// around the Frame call classifies this frame's control phase as
		// full, incremental, or idle.
		fullBefore, incrBefore = s.plane.RecomputeSplit()
	}

	rep := s.plane.Frame(s.frameCount, snapshot)
	if timing {
		end := s.spanNow()
		fullAfter, incrAfter := s.plane.RecomputeSplit()
		s.emitPhaseSpan(controlPhase(fullBefore, incrBefore, fullAfter, incrAfter), mark, end)
	}
	s.res.Energy.ControlDownloadPJ += rep.DownloadPJ
	s.res.Energy.ControllerPJ += rep.ControllerPJ
	s.res.DeadlockReports += rep.NewDeadlockReports
	if rep.Adopted > s.res.PeakAdoptedNodes {
		s.res.PeakAdoptedNodes = rep.Adopted
	}
	if rep.Recomputed {
		s.res.RoutingRecomputes++
	}
	frame.Recomputed = rep.Recomputed
	for _, f := range rep.Failovers {
		s.res.RegionFailovers++
		s.emitRegionFailedOver(FailoverEvent{
			Now: s.now, Frame: s.frameCount,
			From: f.From, To: f.To, Home: f.Home, Nodes: f.Nodes,
		})
	}
	if rep.ControllersDead {
		s.emitFrameProcessed(frame)
		s.finish(DeathControllersDead)
		return
	}

	if rep.Recomputed {
		// Give blocked jobs a chance to re-resolve against the new tables.
		for _, j := range s.jobs {
			switch j.phase {
			case phaseWaitingRoute, phaseWaitingBuffer:
				j.phase = phaseRoute
			}
		}
	}
	frame.JobsInFlight = len(s.jobs)
	s.emitFrameProcessed(frame)
	if s.moduleExtinct() {
		s.finish(DeathModuleExtinct)
	}
}

// buildSnapshot collects the per-node status reported during this frame's
// upload phase, emitting one BatterySampled event per living node when
// observers are attached. The snapshot is written into the one
// simulator-owned buffer, so steady-state frames allocate nothing.
func (s *Simulator) buildSnapshot() *routing.SystemState {
	snapshot := &s.snap
	snapshot.Graph = s.graph
	snapshot.TopologyEpoch = s.topoEpoch
	k := len(s.nodes)
	if cap(snapshot.Status) < k {
		snapshot.Status = make([]routing.NodeStatus, k)
	}
	snapshot.Status = snapshot.Status[:k]
	if s.blocked == nil {
		s.blocked = make([]bool, k)
	}
	for i := range s.blocked {
		s.blocked[i] = false
	}
	threshold := int64(tdma.DeadlockThresholdFrames) * tdma.FramePeriodCycles
	for _, j := range s.jobs {
		if j.blockedAt >= 0 && s.now-j.blockedAt >= threshold {
			s.blocked[j.at] = true
		}
	}
	sampling := len(s.observers) > 0
	for _, n := range s.nodes {
		if n.down() {
			// A crashed node reports nothing, exactly like a dead one; the
			// plane routes around it until the crash window closes.
			snapshot.Status[n.id] = routing.NodeStatus{Alive: false}
			continue
		}
		s.restNode(n)
		level := battery.Level(n.battery, s.cfg.BatteryLevels)
		snapshot.Status[n.id] = routing.NodeStatus{
			Alive:        true,
			BatteryLevel: level,
			Deadlocked:   s.blocked[n.id],
		}
		if sampling {
			s.emitBatterySampled(BatteryEvent{
				Now:         s.now,
				Frame:       s.frameCount,
				Node:        n.id,
				Level:       level,
				Levels:      s.cfg.BatteryLevels,
				RemainingPJ: n.battery.RemainingPJ(),
				Fraction:    n.battery.LevelFraction(),
			})
		}
	}
	return snapshot
}
