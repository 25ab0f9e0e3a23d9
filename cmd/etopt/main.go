// Command etopt searches for an optimized module→node placement of a
// registered scenario. Where the paper fixes the mapping up front (the
// Sec 5.2 checkerboard) and quotes Theorem 1 as an unreachable yardstick,
// etopt treats the placement as a decision variable: a deterministic
// metaheuristic search — greedy hill-climb, simulated annealing or plain
// multi-restart — walks the space of explicit assignments, scoring candidates
// with the chosen objective, and prints the winning placement in a form every
// other tool replays (`etsim -mapping explicit:...`, scenario.Spec
// Assignment).
//
// Examples:
//
//	etopt -scenario paper-default                          # hill-climb, sim objective
//	etopt -scenario paper-default -strategy anneal -budget 200 -restarts 4 -workers 4
//	etopt -scenario paper-default -objective analytic -budget 2000
//	etopt -scenario degraded-fabric-mc -objective campaign -replications 10
//	etopt -scenario paper-default -emit-spec               # print a registerable spec
//
// The search is deterministic: the report — including the winning placement
// and its hash — is a pure function of (-scenario, -objective, -strategy,
// -budget, -restarts, -seed), byte-identical at every -workers count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/optimize"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	var (
		scenarioName  = flag.String("scenario", "paper-default", "registered scenario whose placement to optimize (see -list-scenarios)")
		listScenarios = flag.Bool("list-scenarios", false, "list the registered scenarios and exit")
		objectiveName = flag.String("objective", "sim", "candidate score: sim (one simulation, completed jobs), analytic (Theorem-1 surrogate) or campaign (replicated mean over re-drawn seeds)")
		strategyName  = flag.String("strategy", "climb", "search strategy: climb (greedy hill-climb), anneal (simulated annealing) or restart (multi-restart hill-climb from random placements)")
		budget        = flag.Int("budget", 100, "objective evaluations per restart (cache hits are free)")
		restarts      = flag.Int("restarts", 4, "independent restarts; restart 0 starts from the scenario's own mapping, the rest from random placements")
		seed          = flag.Uint64("seed", 1, "base seed; every restart, move and random start is an index-addressed function of it")
		workers       = flag.Int("workers", 0, "restarts searched concurrently (0 = one per CPU, 1 = serial); never changes the result")
		replications  = flag.Int("replications", 10, "replicates per evaluation for -objective campaign")
		asCSV         = flag.Bool("csv", false, "emit the summary and trace tables as CSV")
		emitSpec      = flag.Bool("emit-spec", false, "print the winning placement as a registerable scenario.Spec literal and exit")
	)
	flag.Parse()

	if *listScenarios {
		fmt.Print(scenario.Table().Render())
		return
	}
	spec, ok := scenario.Lookup(*scenarioName)
	if !ok {
		fatal(fmt.Errorf("unknown scenario %q; -list-scenarios shows the %d registered ones",
			*scenarioName, len(scenario.Names())))
	}

	var objective optimize.Objective
	switch *objectiveName {
	case "sim":
		objective = optimize.Sim{Base: spec}
	case "analytic":
		obj, err := optimize.NewAnalytic(spec)
		if err != nil {
			fatal(err)
		}
		objective = obj
	case "campaign":
		objective = optimize.Campaign{Base: spec, Replications: *replications, Seed: *seed}
	default:
		fatal(fmt.Errorf("unknown objective %q (want sim, analytic or campaign)", *objectiveName))
	}

	var opt optimize.MultiRestart
	switch *strategyName {
	case "climb":
		opt = optimize.MultiRestart{Inner: optimize.Climb, Restarts: *restarts}
	case "anneal":
		opt = optimize.MultiRestart{Inner: optimize.Anneal, Restarts: *restarts}
	case "restart":
		opt = optimize.MultiRestart{Restarts: *restarts, RandomStarts: true}
	default:
		fatal(fmt.Errorf("unknown strategy %q (want climb, anneal or restart)", *strategyName))
	}

	rpt, err := opt.Optimize(runner.New(runner.WithWorkers(*workers)), optimize.Problem{
		Spec:      spec,
		Objective: objective,
		Budget:    *budget,
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}

	if *emitSpec {
		emitSpecLiteral(spec, rpt)
		return
	}

	emit := func(t *stats.Table) {
		if *asCSV {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
	emit(rpt.SummaryTable())
	emit(rpt.TraceTable())
	if !*asCSV {
		fmt.Printf("best so far  %s\n\n", stats.Sparkline(rpt.BestSoFar(), 60))
		printPlacementGrid(spec, rpt)
	}

	fmt.Printf("winner: restart %d, score %s (start %s, %.2fx), %d evals + %d cache hits\n",
		rpt.BestRestart, stats.Format(rpt.BestScore), stats.Format(rpt.StartScore), rpt.Gain(), rpt.Evals, rpt.CacheHits)
	printBoundGap(spec, rpt)
	fmt.Printf("assignment: %s\n", rpt.BestAssignment())
	fmt.Printf("winner hash: %016x\n", rpt.WinnerHash())
	fmt.Printf("replay: etsim -scenario %s -mapping explicit:%s\n", spec.Name, rpt.BestAssignment())
}

// printBoundGap quotes the winner against the Theorem-1 bound J* when the
// objective's score is a job count (sim/campaign) or job-count surrogate
// (analytic) — which is every objective this CLI builds.
func printBoundGap(spec scenario.Spec, rpt *optimize.Report) {
	s, err := spec.Strategy()
	if err != nil {
		return
	}
	bound, err := s.UpperBound()
	if err != nil {
		return
	}
	fmt.Printf("gap to J*: score %s vs bound %.2f (%.1f%% achieved)\n",
		stats.Format(rpt.BestScore), bound.Jobs, 100*rpt.BestScore/bound.Jobs)
}

// printPlacementGrid draws the winning placement in mesh coordinates, one
// module digit per node — the searched counterpart of the paper's Fig 3(b)
// checkerboard diagram.
func printPlacementGrid(spec scenario.Spec, rpt *optimize.Report) {
	s, err := spec.Strategy()
	if err != nil {
		return
	}
	fmt.Printf("placement (%s, module per node):\n", spec.Label())
	nodes := s.Mesh.Graph.Nodes()
	maxY := 0
	for _, n := range nodes {
		if n.Pos.Y > maxY {
			maxY = n.Pos.Y
		}
	}
	rows := make(map[int][]string, maxY)
	for _, n := range nodes {
		rows[n.Pos.Y] = append(rows[n.Pos.Y], fmt.Sprintf("%d", rpt.Best.ModuleAt(int(n.ID))))
	}
	for y := 1; y <= maxY; y++ {
		fmt.Print("  ")
		for _, cell := range rows[y] {
			fmt.Printf("%s ", cell)
		}
		fmt.Println()
	}
	fmt.Println()
}

// emitSpecLiteral prints the winner as a ready-to-register scenario.Spec:
// the base scenario with its mapping fields replaced by the searched
// placement. Every non-default field of the base spec is carried over — the
// emitted scenario must reproduce exactly the configuration the placement
// was optimized for (fault pattern, controllers, offered load, ...), or the
// replayed score would silently diverge from the search's.
func emitSpecLiteral(spec scenario.Spec, rpt *optimize.Report) {
	fmt.Printf("scenario.Spec{\n")
	fmt.Printf("\tName:        %q,\n", spec.Name+"-optimized")
	fmt.Printf("\tDescription: \"optimized placement of %s (score %s, seed %d)\",\n",
		spec.Name, stats.Format(rpt.BestScore), rpt.Seed)
	fmt.Printf("\tMesh:        %d,\n", spec.Mesh)
	if spec.Algorithm != "" {
		fmt.Printf("\tAlgorithm:   %q,\n", spec.Algorithm)
	}
	if spec.EARQ != 0 {
		fmt.Printf("\tEARQ:        %g,\n", spec.EARQ)
	}
	if spec.BatteryLevels != 0 {
		fmt.Printf("\tBatteryLevels: %d,\n", spec.BatteryLevels)
	}
	if spec.Battery != "" {
		fmt.Printf("\tBattery:     %q,\n", spec.Battery)
	}
	fmt.Printf("\tMapping:     scenario.MappingExplicit,\n")
	fmt.Printf("\tAssignment:  %q,\n", rpt.BestAssignment())
	if spec.Controllers != 0 {
		fmt.Printf("\tControllers: %d,\n", spec.Controllers)
	}
	if spec.FiniteControllers {
		fmt.Printf("\tFiniteControllers: true,\n")
	}
	if spec.ConcurrentJobs != 0 {
		fmt.Printf("\tConcurrentJobs: %d,\n", spec.ConcurrentJobs)
	}
	if spec.FailedLinkFraction != 0 {
		fmt.Printf("\tFailedLinkFraction: %g,\n", spec.FailedLinkFraction)
		fmt.Printf("\tFailedLinkSeed:     %d,\n", spec.FailedLinkSeed)
	}
	if spec.VerifyPayload {
		fmt.Printf("\tVerifyPayload: true,\n")
	}
	if spec.CollectNodeStats {
		fmt.Printf("\tCollectNodeStats: true,\n")
	}
	if spec.MaxCycles != 0 {
		fmt.Printf("\tMaxCycles:   %d,\n", spec.MaxCycles)
	}
	fmt.Printf("}\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etopt:", err)
	os.Exit(1)
}
