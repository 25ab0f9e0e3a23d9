// Command etcampaign runs a Monte-Carlo replication campaign over a
// registered scenario: the scenario is simulated -replications times with
// per-replicate seeds drawn from a deterministic SplitMix64 stream, and the
// streaming aggregates (mean ± 95% confidence interval, standard deviation,
// min/max, P50/P90/P99) of every result metric are printed as a table or
// CSV. The campaign retains no per-replicate results, so replication counts
// in the tens of thousands are cheap in memory.
//
// Examples:
//
//	etcampaign -scenario random-mapping-sweep                  # 100 replicates
//	etcampaign -scenario degraded-fabric-mc -replications 1000 -workers 8
//	etcampaign -scenario paper-default -seed 7 -csv
//
// The output is a pure function of (scenario, -replications, -seed): the
// worker count never changes a digit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	var (
		scenarioName  = flag.String("scenario", "", "registered scenario to replicate (see -list-scenarios)")
		listScenarios = flag.Bool("list-scenarios", false, "list the registered scenarios and exit")
		replications  = flag.Int("replications", 100, "number of independent replicates")
		seed          = flag.Uint64("seed", 1, "campaign base seed; replicate i draws its scenario seeds from a SplitMix64 stream at this base")
		workers       = flag.Int("workers", 0, "worker goroutines simulating replicates (0 = one per CPU, 1 = serial)")
		asCSV         = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	if *listScenarios {
		for _, t := range scenario.GroupedTables() {
			fmt.Print(t.Render())
		}
		return
	}
	if *scenarioName == "" {
		fatal(fmt.Errorf("-scenario is required; -list-scenarios shows the %d registered ones", len(scenario.Names())))
	}
	spec, ok := scenario.Lookup(*scenarioName)
	if !ok {
		fatal(fmt.Errorf("unknown scenario %q; -list-scenarios shows the %d registered ones",
			*scenarioName, len(scenario.Names())))
	}

	res, err := campaign.Run(context.Background(), runner.New(runner.WithWorkers(*workers)), campaign.Spec{
		Scenario:     spec,
		Replications: *replications,
		Seed:         *seed,
	})
	if err != nil {
		fatal(err)
	}

	if *asCSV {
		fmt.Print(res.Table().CSV())
	} else {
		fmt.Print(res.Table().Render())
	}
	// Scenarios that verify AES payloads keep their hard-failure contract
	// under replication: any ciphertext mismatch exits non-zero.
	if err := res.MismatchError(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etcampaign:", err)
	os.Exit(1)
}
