// Command etbench regenerates every table and figure of the paper's
// evaluation section, plus the additional ablation studies documented in
// DESIGN.md, and prints them as plain-text tables (and optional CSV).
//
// Examples:
//
//	etbench                         # run everything on the paper's mesh sizes
//	etbench -experiment fig7        # only the EAR-vs-SDR comparison
//	etbench -sizes 4,5,6 -csv       # smaller sweep, CSV output
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
)

// experimentNames lists every name -experiment accepts, in help order, with
// "all" last.
var experimentNames = []string{
	"fig2", "fig7", "table2", "fig8", "fig7-mc", "fig8-mc", "fig8-sharded",
	"degradation", "opt-gap", "ablation-q", "ablation-mapping",
	"ablation-battery", "ablation-concurrency", "ablation-links", "all",
}

// parseExperiments splits the comma-separated -experiment list and rejects
// any name that is not an experiment, so a typo fails instead of silently
// running the rest of the list.
func parseExperiments(list string) ([]string, error) {
	selected := strings.Split(list, ",")
	for _, name := range selected {
		if !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", "))
		}
	}
	return selected, nil
}

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"which experiment to run: "+strings.Join(experimentNames[:len(experimentNames)-1], ", ")+" or all")
		sizesFlag     = flag.String("sizes", joinAxis(experiments.PaperMeshSizes()), "comma-separated square mesh sizes")
		ctrlFlag      = flag.String("controllers", joinAxis(experiments.PaperControllerCounts()), "comma-separated controller counts for fig8")
		shardsFlag    = flag.String("shards", joinAxis(experiments.DefaultShardCounts()), "comma-separated shard counts for fig8-sharded (1 = centralized baseline)")
		stalenessFlag = flag.String("staleness", joinAxis(experiments.DefaultStalenessBounds()), "comma-separated summary-exchange periods in frames for fig8-sharded")
		shardCtrlFlag = flag.String("shard-controllers", joinAxis(experiments.DefaultShardedControllerCounts()), "comma-separated per-pool controller counts for fig8-sharded (0 = one infinite-energy controller)")
		ratesFlag     = flag.String("fault-rates", joinAxis(experiments.DefaultFaultRates()), "comma-separated per-frame fault rates for degradation (0 = fault-free baseline)")
		recoveryFlag  = flag.String("recovery-frames", joinAxis(experiments.DefaultRecoveryFrames()), "comma-separated fault recovery windows in frames for degradation")
		asCSV         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		workers       = flag.Int("workers", 0, "worker goroutines per sweep (0 = one per CPU, 1 = serial)")
		charts        = flag.Bool("charts", false, "also render ASCII charts for the figures")
		replications  = flag.Int("replications", 30, "replicates per cell for the Monte-Carlo sweeps (fig7-mc, fig8-mc)")
		seed          = flag.Uint64("seed", 1, "base seed for the Monte-Carlo sweeps and the placement search")
		budget        = flag.Int("budget", 60, "simulations per search restart for opt-gap")
		restarts      = flag.Int("restarts", 4, "independent search restarts per opt-gap cell")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile taken after the experiments to this file")
		spansFile     = flag.String("spans", "", "record every sweep cell in the flight recorder and write Chrome trace-event JSON to this file (one lane per worker; open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	selected, err := parseExperiments(*experiment)
	if err != nil {
		fatal(err)
	}

	sizesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sizes" {
			sizesSet = true
		}
	})

	// Both profiles are written through deferred calls, so they cover
	// successful runs only: fatal exits through os.Exit, which skips defers.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "etbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "etbench:", err)
			}
		}()
	}

	sizes, err := cli.ParseInts(*sizesFlag, "mesh size")
	if err != nil {
		fatal(err)
	}
	controllers, err := cli.ParseInts(*ctrlFlag, "controller count")
	if err != nil {
		fatal(err)
	}

	shardCounts, err := cli.ParseInts(*shardsFlag, "shard count")
	if err != nil {
		fatal(err)
	}
	stalenessBounds, err := cli.ParseInts(*stalenessFlag, "staleness bound")
	if err != nil {
		fatal(err)
	}
	shardControllers, err := cli.ParseInts(*shardCtrlFlag, "per-pool controller count")
	if err != nil {
		fatal(err)
	}
	faultRates, err := cli.ParseFloats(*ratesFlag, "fault rate")
	if err != nil {
		fatal(err)
	}
	recoveryFrames, err := cli.ParseInts(*recoveryFlag, "recovery window")
	if err != nil {
		fatal(err)
	}

	parallelism := experiments.WithWorkers(*workers)
	var spanLog *trace.Spans
	if *spansFile != "" {
		// Cell spans are observational only: the sweep tables are
		// byte-identical with recording on or off (the determinism guards
		// diff them at multiple worker counts).
		spanLog = &trace.Spans{}
		parallelism = experiments.Options(parallelism, experiments.WithSpans(spanLog))
	}

	// The Monte-Carlo sweeps multiply every cell by -replications, so they
	// are opt-in: named explicitly, never part of "all".
	wantExplicit := func(name string) bool { return slices.Contains(selected, name) }
	want := func(name string) bool {
		return slices.Contains(selected, "all") || wantExplicit(name)
	}
	emit := func(t *stats.Table) {
		if *asCSV {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	if want("fig2") {
		points := experiments.Fig2(20)
		emit(experiments.Fig2Table(points))
	}
	if want("fig7") {
		rows, err := experiments.Fig7(sizes, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig7Table(rows))
		if *charts {
			fmt.Println(experiments.Fig7Chart(rows).Render(60))
		}
	}
	if want("table2") {
		rows, err := experiments.Table2(sizes, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Table2Table(rows))
	}
	if want("fig8") {
		rows, err := experiments.Fig8(sizes, controllers, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig8Table(rows, controllers))
		if *charts {
			fmt.Println(experiments.Fig8Chart(rows, controllers).Render(60))
		}
	}
	if wantExplicit("fig7-mc") {
		rows, err := experiments.Fig7MC(sizes, *replications, *seed, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig7MCTable(rows))
		if *charts {
			fmt.Println(experiments.Fig7MCChart(rows).Render(60))
		}
	}
	if wantExplicit("fig8-mc") {
		rows, err := experiments.Fig8MC(sizes, controllers, *replications, *seed, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig8MCTable(rows))
		if *charts {
			fmt.Println(experiments.Fig8MCChart(rows, controllers).Render(60))
		}
	}
	// The sharded grid multiplies every mesh size by the controller, shard and
	// staleness axes, so it is opt-in like the Monte-Carlo sweeps.
	if wantExplicit("fig8-sharded") {
		rows, err := experiments.Fig8Sharded(sizes, shardControllers, shardCounts, stalenessBounds, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig8ShardedTable(rows))
		if *charts {
			fmt.Println(experiments.Fig8ShardedChart(rows).Render(60))
		}
	}
	// The degradation study multiplies its mesh axis by the algorithm,
	// fault-rate and recovery axes, so it is opt-in like the sharded grid; it
	// runs on its own small default mesh unless -sizes was set explicitly.
	if wantExplicit("degradation") {
		degradationSizes := experiments.DefaultDegradationSizes()
		if sizesSet {
			degradationSizes = sizes
		}
		rows, err := experiments.Degradation(degradationSizes, faultRates, recoveryFrames, *seed, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.DegradationTable(rows))
		if *charts {
			fmt.Println(experiments.DegradationChart(rows).Render(60))
		}
	}
	if wantExplicit("opt-gap") {
		rows, err := experiments.OptGap(sizes, *budget, *restarts, *seed, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.OptGapTable(rows))
		if *charts {
			fmt.Println(experiments.OptGapChart(rows).Render(60))
		}
	}
	if want("ablation-q") {
		rows, err := experiments.AblationEARWeight(sizes, []float64{1, 1.5, 2, 3, 4}, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.AblationQTable(rows))
	}
	if want("ablation-mapping") {
		rows, err := experiments.AblationMapping(sizes, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.AblationMappingTable(rows))
	}
	if want("ablation-battery") {
		rows, err := experiments.AblationBattery(sizes, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.AblationBatteryTable(rows))
	}
	if want("ablation-concurrency") {
		rows, err := experiments.AblationConcurrency(sizes, []int{1, 2, 3, 4}, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.AblationConcurrencyTable(rows))
	}
	if want("ablation-links") {
		rows, err := experiments.AblationLinkFailures(sizes, []float64{0, 0.1, 0.2, 0.3}, parallelism)
		if err != nil {
			fatal(err)
		}
		emit(experiments.AblationLinkTable(rows))
	}
	if spanLog != nil {
		if err := spanLog.WriteFile(*spansFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spans: %d cells recorded, written to %s\n", spanLog.Len(), *spansFile)
	}
}

// joinAxis renders a default axis as the comma-separated list its flag
// parses, so each default is written once, in package experiments.
func joinAxis[T int | float64](axis []T) string {
	parts := make([]string, len(axis))
	for i, v := range axis {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etbench:", err)
	os.Exit(1)
}
