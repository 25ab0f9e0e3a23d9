package sim_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/battery"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// simulate runs a scenario with the given observers attached.
func simulate(t *testing.T, sp scenario.Spec, obs ...sim.Observer) sim.Result {
	t.Helper()
	res, err := sp.Simulate(obs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// conserved fails the test unless got and want agree to a relative
// tolerance of 1e-9 of scale. The engine's sums differ from their
// re-derivations only in float grouping, far below that.
func conserved(t *testing.T, what string, got, want, scale float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Abs(scale) {
		t.Errorf("%s: %.6f pJ != %.6f pJ (residual %.3g pJ)", what, got, want, got-want)
	}
}

// TestEnergyConservation runs every pinned scenario with per-node statistics
// on (etsim's -v) at GOMAXPROCS 4, and checks that run in two subtests:
//   - energy: three accounting identities hold. The node batteries'
//     delivered plus remaining energy is their initial charge; what they
//     delivered is the result's node-side energy, with brown-out losses in
//     AbortedPJ; and the per-node statistics sum to the result's totals. The
//     controller side (download and controller energy) is paid by the
//     control plane's pools, never by a node battery, so it appears in none
//     of them.
//   - procs: the same spec at GOMAXPROCS 1 gives the same result bytes. A
//     sharded plane's regions, and one workspace's repair and phase-3 cells
//     on graphs above its size switch, run concurrently only with more than
//     one CPU.
//
// The test sets GOMAXPROCS, so it does not run in parallel.
func TestEnergyConservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, sp := range pinnedScenarios() {
		sp.CollectNodeStats = true
		t.Run(sp.Name, func(t *testing.T) {
			res := simulate(t, sp)
			t.Run("energy", func(t *testing.T) {
				if len(res.Nodes) != res.MeshNodes {
					t.Fatalf("%d node stats for %d nodes", len(res.Nodes), res.MeshNodes)
				}
				var delivered, remaining, comp, comm, ctrl float64
				for _, n := range res.Nodes {
					delivered += n.DeliveredPJ
					remaining += n.RemainingPJ
					comp += n.ComputationPJ
					comm += n.CommunicationPJ
					ctrl += n.ControlPJ
				}
				e := res.Energy
				charge := float64(res.MeshNodes) * battery.DefaultNominalPJ
				conserved(t, "delivered + remaining vs initial charge", delivered+remaining, charge, charge)
				conserved(t, "delivered - useful node energy vs aborted",
					delivered-(e.ComputationPJ+e.CommunicationPJ+e.ControlUploadPJ), e.AbortedPJ, delivered)
				conserved(t, "per-node computation", comp, e.ComputationPJ, e.ComputationPJ)
				conserved(t, "per-node communication", comm, e.CommunicationPJ, e.CommunicationPJ)
				conserved(t, "per-node control", ctrl, e.ControlUploadPJ, e.ControlUploadPJ)
			})
			t.Run("procs", func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				sameJSON(t, "GOMAXPROCS 1 against 4", simulate(t, sp), res)
			})
		})
	}
}

// kindCounter counts the event stream by kind.
type kindCounter struct {
	sim.BaseObserver
	completed, lost, died, injected, recovered, failovers int
	frames                                                int64
	lastFrame                                             int64
	finish                                                []sim.FinishEvent
}

func (c *kindCounter) JobCompleted(sim.JobEvent)          { c.completed++ }
func (c *kindCounter) JobLost(sim.JobEvent)               { c.lost++ }
func (c *kindCounter) NodeDied(sim.NodeEvent)             { c.died++ }
func (c *kindCounter) FaultInjected(sim.FaultEvent)       { c.injected++ }
func (c *kindCounter) FaultRecovered(sim.FaultEvent)      { c.recovered++ }
func (c *kindCounter) RegionFailedOver(sim.FailoverEvent) { c.failovers++ }
func (c *kindCounter) RunFinished(e sim.FinishEvent)      { c.finish = append(c.finish, e) }

func (c *kindCounter) FrameProcessed(e sim.FrameEvent) {
	c.frames++
	c.lastFrame = e.Frame
}

// TestObserverEventStreamMatchesResult pins the outbound event stream to the
// result the engine writes separately: each event kind fires exactly as often
// as the matching Result counter says, the run ends with one RunFinished that
// agrees with the result, and attaching observers (a nil one included, which
// the engine skips) does not change the result. chaos-storm and
// chaos-region-failover between them fire every hook.
func TestObserverEventStreamMatchesResult(t *testing.T) {
	for _, name := range []string{"chaos-storm", "chaos-region-failover"} {
		t.Run(name, func(t *testing.T) {
			sp, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			c := &kindCounter{}
			res := simulate(t, sp, nil, c)
			for _, m := range []struct {
				what           string
				events, result int64
			}{
				{"JobCompleted / JobsCompleted", int64(c.completed), int64(res.JobsCompleted)},
				{"JobLost / JobsLost", int64(c.lost), int64(res.JobsLost)},
				{"NodeDied / DeadNodes", int64(c.died), int64(res.DeadNodes)},
				{"FaultInjected / FaultsInjected", int64(c.injected), int64(res.FaultsInjected)},
				{"FaultRecovered / FaultsRecovered", int64(c.recovered), int64(res.FaultsRecovered)},
				{"RegionFailedOver / RegionFailovers", int64(c.failovers), int64(res.RegionFailovers)},
				{"FrameProcessed / Frames", c.frames, res.Frames},
			} {
				if m.events != m.result {
					t.Errorf("%s: %d events, result says %d", m.what, m.events, m.result)
				}
				if m.events == 0 {
					t.Errorf("%s: hook never fired", m.what)
				}
			}
			if c.lastFrame != res.Frames {
				t.Errorf("last FrameProcessed is frame %d, result says %d frames", c.lastFrame, res.Frames)
			}
			if len(c.finish) != 1 {
				t.Fatalf("RunFinished fired %d times, want once", len(c.finish))
			}
			if f := c.finish[0]; f.Now != res.LifetimeCycles || f.Frame != res.Frames || f.Reason != res.Reason {
				t.Errorf("RunFinished %+v disagrees with result (%d cycles, %d frames, %s)",
					f, res.LifetimeCycles, res.Frames, res.Reason)
			}
			if bare := simulate(t, sp); !reflect.DeepEqual(bare, res) {
				t.Errorf("observers perturbed the simulation:\nbare:     %+v\nobserved: %+v", bare, res)
			}
		})
	}
}
