package sim

import "repro/internal/faults"

// applyFaults runs the fault schedule's frame-boundary transitions: the
// Runtime has already applied link mutations to the engine's private graph
// clone when FrameStart returns; node and region transitions are applied here,
// where the batteries and the control plane live. Every transition is counted
// in the result and emitted on the observer stream.
func (s *Simulator) applyFaults() {
	for _, ev := range s.faultRuntime.FrameStart(s.frameCount) {
		switch ev.Kind {
		case faults.LinkDown, faults.LinkBreak, faults.LinkUp:
			// The graph changed shape; the next snapshot carries a new epoch so
			// the control planes recompute even though no node status changed.
			s.topoEpoch++
		case faults.NodeCrash:
			s.crashNode(s.nodes[ev.Node])
		case faults.NodeRestore:
			s.restoreNode(s.nodes[ev.Node])
		case faults.RegionDown:
			s.plane.FaultRegion(ev.Shard, true)
		case faults.RegionUp:
			s.plane.FaultRegion(ev.Shard, false)
		}
		fe := FaultEvent{
			Now: s.now, Frame: s.frameCount,
			Kind: ev.Kind, From: ev.From, To: ev.To, Node: ev.Node,
			Shard: ev.Shard, RecoverAt: ev.RecoverAt,
		}
		if ev.Kind.Recovery() {
			s.res.FaultsRecovered++
			s.emitFaultRecovered(fe)
		} else {
			s.res.FaultsInjected++
			if ev.Kind == faults.LinkBreak {
				s.res.LinksBroken++
			}
			s.emitFaultInjected(fe)
		}
	}
}

// crashNode takes a running node down for a fault window: it stops computing,
// relaying and reporting, and any jobs it holds are lost exactly as for a
// battery death. Unlike killNode there is no extinction check — a module whose
// duplicates are merely crashed is not extinct, and jobs needing it block
// until the crash window closes (see resolveRoute).
func (s *Simulator) crashNode(n *nodeState) {
	if n.dead || n.crashed {
		return
	}
	n.crashed = true
	s.killScratch = append(s.killScratch[:0], s.jobs...)
	for _, j := range s.killScratch {
		if j.at == n.id || j.pendingNext == n.id {
			s.loseJob(j)
		}
	}
}

// restoreNode closes a node's crash window. Its battery rested through the
// outage (restNode catches up lazily from lastRest), so a restored node comes
// back with whatever charge it recovered while silent.
func (s *Simulator) restoreNode(n *nodeState) {
	if n.dead {
		return // the battery died during the outage; the crash became permanent
	}
	n.crashed = false
}
