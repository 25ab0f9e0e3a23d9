// Command etsim runs a single et_sim simulation and prints the resulting
// statistics. It is the command-line front end for the sim package.
//
// A run can be described either ad hoc with the individual flags, or by
// naming a registered scenario. The ad-hoc flags build a scenario.Spec, so
// both take the same path (etsim -mesh 4 runs exactly -scenario
// paper-default):
//
//	etsim -mesh 4 -alg EAR -battery thinfilm -controllers 1 -v
//	etsim -list-scenarios
//	etsim -scenario stress-burst
//	etsim -scenario smartshirt-verified -trace shirt.csv
//	etsim -scenario random-mapping-sweep -seed 7
//	etsim -scenario paper-default -mapping explicit:1,2,3,1,3,1,3,2,3,1,3,3,2,3,2,1
//	etsim -scenario optimized-4x4 -mapping checkerboard
//	etsim -mesh 8 -controlplane sharded -shards 4 -staleness 8
//	etsim -scenario paper-large -controlplane sharded -shards 4
//
// With -trace, the combined battery/throughput time-series of the run is
// written to the given file as deterministic CSV. With -verify (or a
// scenario that verifies payloads), any ciphertext mismatch is a hard
// failure: etsim exits non-zero.
//
// The stochastic knobs of a named scenario can be re-drawn without editing
// the registry: -seed N overrides the scenario's MappingSeed and
// FailedLinkSeed for a single run. Monte-Carlo replication of a scenario
// (seed-stream replicates folded into mean ± CI / quantile aggregates) is
// cmd/etcampaign's job.
// -mapping overrides the scenario's module placement by strategy name, or
// replays an exact placement with explicit:<assignment> (the form cmd/etopt
// prints for its optimized placements). -controlplane/-shards/-staleness
// select the controller architecture (see internal/controlplane), both ad hoc
// and as overrides on a named scenario. -recompute selects the controller's
// phase-2 strategy (incremental dirty-set repair, the default, or the full
// Floyd-Warshall pass); the two are byte-identical whenever path sums are
// exact, which covers every registered scenario and every dyadic -ear-q, and
// can differ at other Q. The knob exists for equivalence checks and timing
// comparisons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// options holds etsim's flags, parsed into one flag set so the flag →
// scenario.Spec translation can run on any argument list.
type options struct {
	fs  *flag.FlagSet
	set map[string]bool // flags passed explicitly

	scenarioName, traceFile, spansFile           string
	listScenarios, asJSON                        bool
	meshSize                                     int
	algName, batteryKind                         string
	controllers, concurrent                      int
	ctrlBattery, verify, perNode                 bool
	earQ                                         float64
	maxCycles                                    int64
	mappingName, planeName, recompute, faultSpec string
	shards, staleness                            int
	seed                                         uint64
}

// newOptions defines every etsim flag on a fresh flag set.
func newOptions() *options {
	o := &options{fs: flag.NewFlagSet("etsim", flag.ExitOnError)}
	fs := o.fs
	fs.StringVar(&o.scenarioName, "scenario", "", "run a registered scenario by name (see -list-scenarios); conflicts with the ad-hoc configuration flags, combines with -trace/-verify/-v/-max-cycles")
	fs.BoolVar(&o.listScenarios, "list-scenarios", false, "list the registered scenarios and exit")
	fs.BoolVar(&o.asJSON, "json", false, "with -list-scenarios: emit the machine-readable registry (name, description, group, mesh, algorithm, canonical fingerprint) instead of tables")
	fs.StringVar(&o.traceFile, "trace", "", "write the per-frame battery/throughput time-series to this file as CSV")
	fs.StringVar(&o.spansFile, "spans", "", "record the flight recorder's frame/phase spans and write them to this file as Chrome trace-event JSON (open in chrome://tracing or Perfetto); the run's stdout is unaffected")
	fs.IntVar(&o.meshSize, "mesh", 4, "square mesh size (4..8 in the paper)")
	fs.StringVar(&o.algName, "alg", scenario.AlgorithmEAR, "routing algorithm: EAR or SDR")
	fs.StringVar(&o.batteryKind, "battery", scenario.BatteryThinFilm, "node battery model: thinfilm or ideal")
	fs.IntVar(&o.controllers, "controllers", 1, "number of central controllers (0 = 1)")
	fs.BoolVar(&o.ctrlBattery, "controller-battery", false, "give controllers finite thin-film batteries (Sec 7.3)")
	fs.IntVar(&o.concurrent, "jobs", 1, "number of concurrent jobs in flight (0 = 1)")
	fs.Float64Var(&o.earQ, "ear-q", routing.DefaultEARParams().Q, "EAR battery-weighting base Q (0 = the paper's; must keep max(Q, 1/Q)^(levels-1) <= 2^32)")
	fs.BoolVar(&o.verify, "verify", false, "carry a real AES payload and verify every completed job (mismatches exit non-zero)")
	fs.Int64Var(&o.maxCycles, "max-cycles", 0, "stop after this many cycles (0 = run to system death)")
	fs.BoolVar(&o.perNode, "v", false, "print per-node statistics")
	fs.StringVar(&o.mappingName, "mapping", "", "with -scenario: override the scenario's module mapping (checkerboard, proportional, row-major, random or explicit:<assignment>)")
	fs.StringVar(&o.planeName, "controlplane", "", "control-plane architecture: centralized (default) or sharded; overrides the scenario's when combined with -scenario")
	fs.IntVar(&o.shards, "shards", 0, "number of regional controllers under -controlplane sharded (0 = default)")
	fs.IntVar(&o.staleness, "staleness", 0, "summary-exchange period in frames between regional controllers (0 = every frame)")
	fs.StringVar(&o.recompute, "recompute", "", "controller phase-2 strategy: incremental (default) or full Floyd-Warshall; outputs are byte-identical whenever path sums are exact (every registered scenario, dyadic -ear-q); overrides the scenario's when combined with -scenario")
	fs.StringVar(&o.faultSpec, "faults", "", "runtime fault schedule, e.g. 'link=0.05:8,crash=0.02:12,wear=150,kill=1@40:120,seed=7' (see internal/faults); overrides the scenario's when combined with -scenario")
	fs.Uint64Var(&o.seed, "seed", 1, "with -scenario: override the scenario's MappingSeed/FailedLinkSeed for this run (cmd/etcampaign replicates a scenario over a seed stream)")
	return o
}

// parse parses args and records which flags were passed explicitly.
func (o *options) parse(args []string) error {
	if err := o.fs.Parse(args); err != nil {
		return err
	}
	o.set = map[string]bool{}
	o.fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return nil
}

// spec translates the parsed flags into the scenario to run: the named
// scenario, or one built from the ad-hoc flags, with the run-shaping and
// override flags applied on top. A zero override keeps the spec's value;
// any other value, a negative one included, is validated later, by
// Spec.Strategy, exactly as for any other spec.
func (o *options) spec() (scenario.Spec, error) {
	var spec scenario.Spec
	if o.scenarioName != "" {
		// A named scenario fully describes the configuration; silently
		// ignoring an explicitly passed ad-hoc flag would run something other
		// than what the user asked for, so it is an error instead. The
		// run-shaping flags (-trace, -verify, -v, -max-cycles) still combine.
		var conflicting []string
		for _, name := range []string{"alg", "battery", "controller-battery", "controllers", "ear-q", "jobs", "mesh"} {
			if o.set[name] {
				conflicting = append(conflicting, "-"+name)
			}
		}
		if len(conflicting) > 0 {
			return spec, fmt.Errorf("-scenario %s already determines the configuration; drop the conflicting flag(s) %v",
				o.scenarioName, conflicting)
		}
		var ok bool
		if spec, ok = scenario.Lookup(o.scenarioName); !ok {
			return spec, fmt.Errorf("unknown scenario %q; -list-scenarios shows the %d registered ones",
				o.scenarioName, len(scenario.Names()))
		}
	} else {
		// The seed and mapping overrides only exist on declarative
		// scenarios; the ad hoc flags describe a deterministic configuration.
		if o.set["seed"] || o.mappingName != "" {
			return spec, fmt.Errorf("-seed and -mapping require -scenario; use cmd/etcampaign to replicate a scenario")
		}
		spec = scenario.Spec{
			Mesh:              o.meshSize,
			Algorithm:         strings.ToUpper(o.algName), // -alg ear and -alg sdr are accepted too
			EARQ:              o.earQ,
			Battery:           o.batteryKind,
			Controllers:       o.controllers,
			FiniteControllers: o.ctrlBattery,
			ConcurrentJobs:    o.concurrent,
		}
	}
	if o.verify {
		spec.VerifyPayload = true
	}
	if o.perNode {
		spec.CollectNodeStats = true
	}
	if o.maxCycles != 0 {
		spec.MaxCycles = o.maxCycles
	}
	if o.mappingName != "" {
		if err := applyMappingOverride(&spec, o.mappingName); err != nil {
			return spec, err
		}
	}
	if o.planeName != "" {
		// Overriding the architecture resets the sharding knobs to the new
		// plane's defaults; -shards/-staleness re-set them explicitly.
		spec.ControlPlane, spec.Shards, spec.StalenessFrames = o.planeName, 0, 0
	}
	if o.shards != 0 {
		spec.Shards = o.shards
	}
	if o.staleness != 0 {
		spec.StalenessFrames = o.staleness
	}
	if o.recompute != "" {
		spec.Recompute = o.recompute
	}
	if o.faultSpec != "" {
		spec.Faults = o.faultSpec
	}
	if o.set["seed"] {
		// Re-draw the scenario's stochastic knobs without editing the
		// registry.
		spec.MappingSeed = o.seed
		spec.FailedLinkSeed = o.seed
	}
	return spec, nil
}

func main() {
	o := newOptions()
	_ = o.parse(os.Args[1:]) // ExitOnError: a bad flag exits with usage

	if o.listScenarios {
		if o.asJSON {
			// The same registry document etserve's GET /scenarios serves, so
			// scripts can discover scenarios and their cache keys without a
			// running daemon.
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(scenario.Infos()); err != nil {
				fatal(err)
			}
			return
		}
		for _, t := range scenario.GroupedTables() {
			fmt.Print(t.Render())
		}
		return
	}
	if o.asJSON {
		fatal(fmt.Errorf("-json currently only applies to -list-scenarios"))
	}

	spec, err := o.spec()
	if err != nil {
		fatal(err)
	}
	strategy, err := spec.Strategy()
	if err != nil {
		fatal(err)
	}
	cfg, err := strategy.Config()
	if err != nil {
		fatal(err)
	}

	var timeline *trace.Timeline
	if o.traceFile != "" {
		timeline = &trace.Timeline{}
		cfg.Observers = append(cfg.Observers, timeline)
	}
	var spanLog *trace.Spans
	if o.spansFile != "" {
		// The flight recorder implements sim.PhaseObserver, so attaching it
		// turns the engine's span clock on. It is observational only: stdout
		// stays byte-identical to a run without it (guarded in CI).
		spanLog = &trace.Spans{}
		cfg.Observers = append(cfg.Observers, spanLog)
	}

	s, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}
	wallStart := time.Now()
	res := s.Run()
	wall := time.Since(wallStart)

	fmt.Println(res.String())
	summary := stats.NewTable("", "metric", "value")
	summary.AddRow("jobs completed", res.JobsCompleted)
	summary.AddRow("jobs lost", res.JobsLost)
	summary.AddRow("lifetime [cycles]", res.LifetimeCycles)
	summary.AddRow("TDMA frames", res.Frames)
	summary.AddRow("routing recomputations", res.RoutingRecomputes)
	summary.AddRow("recompute split (full/incremental)", fmt.Sprintf("%d/%d", res.FullRecomputes, res.IncrementalRecomputes))
	if len(res.ShardRecomputes) > 0 {
		summary.AddRow("control plane", fmt.Sprintf("%s (%d shards)", res.ControlPlane, len(res.ShardRecomputes)))
		summary.AddRow("per-shard recomputations", fmt.Sprint(res.ShardRecomputes))
	}
	summary.AddRow("deadlock reports", res.DeadlockReports)
	summary.AddRow("dead nodes", res.DeadNodes)
	if res.FaultsInjected > 0 || res.FaultsRecovered > 0 {
		summary.AddRow("faults injected / recovered", fmt.Sprintf("%d/%d", res.FaultsInjected, res.FaultsRecovered))
		summary.AddRow("links broken by wear", res.LinksBroken)
	}
	if res.RegionFailovers > 0 {
		summary.AddRow("region failovers", res.RegionFailovers)
		summary.AddRow("peak adopted nodes", res.PeakAdoptedNodes)
	}
	summary.AddRow("computation energy [pJ]", res.Energy.ComputationPJ)
	summary.AddRow("communication energy [pJ]", res.Energy.CommunicationPJ)
	summary.AddRow("control upload energy [pJ]", res.Energy.ControlUploadPJ)
	summary.AddRow("control download energy [pJ]", res.Energy.ControlDownloadPJ)
	summary.AddRow("controller energy [pJ]", res.Energy.ControllerPJ)
	summary.AddRow("wasted (stranded) energy [pJ]", res.Energy.WastedPJ)
	summary.AddRow("control overhead", fmt.Sprintf("%.1f%%", 100*res.Energy.ControlOverheadFraction()))
	if res.PayloadJobsVerified+res.PayloadMismatches > 0 {
		summary.AddRow("AES payloads verified", res.PayloadJobsVerified)
		summary.AddRow("AES payload mismatches", res.PayloadMismatches)
	}
	fmt.Print(summary.Render())

	if o.perNode {
		nodes := stats.NewTable("per-node statistics", "node", "module", "ops", "relayed", "comp pJ", "comm pJ", "ctrl pJ", "dead")
		for _, n := range res.Nodes {
			nodes.AddRow(int(n.Node), n.Module, n.Operations, n.PacketsRelayed, n.ComputationPJ, n.CommunicationPJ, n.ControlPJ, n.Dead)
		}
		fmt.Print(nodes.Render())
	}

	if timeline != nil {
		if err := os.WriteFile(o.traceFile, []byte(timeline.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d frames written to %s\n", len(timeline.Rows()), o.traceFile)
	}

	if spanLog != nil {
		if err := spanLog.WriteFile(o.spansFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spans: %d recorded, written to %s\n", spanLog.Len(), o.spansFile)
	}

	// Wall-clock timing goes to stderr: it differs run to run, and stdout is
	// byte-diffed by the determinism guards.
	framesPerSec := 0.0
	if wall > 0 {
		framesPerSec = float64(res.Frames) / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "etsim: %d frames simulated in %s (%.0f frames/s)\n",
		res.Frames, wall.Round(time.Microsecond), framesPerSec)

	if res.PayloadMismatches > 0 {
		fatal(fmt.Errorf("%d of %d verified payloads mismatched the reference cipher",
			res.PayloadMismatches, res.PayloadJobsVerified+res.PayloadMismatches))
	}
}

// applyMappingOverride rewrites the spec's mapping fields from a -mapping
// value: one of the registered strategy names, or explicit:<assignment> with
// the assignment in mapping.Explicit's comma-separated form (the form etopt
// prints). A typo lists the valid names instead of running something other
// than what the user asked for.
func applyMappingOverride(spec *scenario.Spec, value string) error {
	if assignment, ok := strings.CutPrefix(value, "explicit:"); ok {
		spec.Mapping = scenario.MappingExplicit
		spec.Assignment = assignment
		return nil
	}
	// The named strategies are the registry's mapping names minus explicit,
	// which is only reachable through the explicit:<assignment> form above.
	var named []string
	for _, name := range scenario.MappingNames() {
		if name != scenario.MappingExplicit {
			named = append(named, name)
		}
	}
	canonical := value
	if value == "rowmajor" {
		canonical = scenario.MappingRowMajor
	}
	if !slices.Contains(named, canonical) {
		return fmt.Errorf("unknown mapping %q (want %s, or explicit:<assignment> as printed by etopt)",
			value, strings.Join(named, ", "))
	}
	spec.Mapping = canonical
	// A named strategy replaces whatever explicit assignment the scenario
	// carried.
	spec.Assignment = ""
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etsim:", err)
	os.Exit(1)
}
