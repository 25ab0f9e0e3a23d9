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
	"reflect"
	"strings"

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
		for _, t := range scenario.GroupedTables() {
			fmt.Print(t.Render())
		}
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
		fmt.Print(specLiteral(optimized(spec, rpt.BestAssignment(), fmt.Sprintf(
			"optimized placement of %s (score %s, seed %d)", spec.Name, stats.Format(rpt.BestScore), rpt.Seed))))
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

// optimized returns the base spec with its placement replaced by the
// searched assignment, ready to register. Every other field of the base spec
// is kept: the emitted scenario must reproduce exactly the configuration the
// placement was optimized for (fault pattern, control plane, offered load,
// ...), or the replayed score would silently diverge from the search's.
func optimized(spec scenario.Spec, assignment, description string) scenario.Spec {
	out := spec
	out.Name = spec.Name + "-optimized"
	out.Group = scenario.GroupOptimized
	out.Description = description
	out.Mapping = scenario.MappingExplicit
	out.MappingSeed = 0 // read only by the random mapping
	out.Assignment = assignment
	return out
}

// specLiteral renders a spec as a scenario.Spec composite literal of its
// non-zero fields, in declaration order, so a field added to Spec is carried
// over without touching this code.
func specLiteral(sp scenario.Spec) string {
	var b strings.Builder
	b.WriteString("scenario.Spec{\n")
	v := reflect.ValueOf(sp)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		if f.Kind() == reflect.String {
			fmt.Fprintf(&b, "\t%s: %q,\n", v.Type().Field(i).Name, f.String())
		} else {
			fmt.Fprintf(&b, "\t%s: %v,\n", v.Type().Field(i).Name, f.Interface())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etopt:", err)
	os.Exit(1)
}
