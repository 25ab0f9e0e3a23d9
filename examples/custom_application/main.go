// Custom application: the routing strategy, Theorem-1 bound and simulator are
// application-agnostic. This example builds a health-monitoring pipeline
// (sample filtering, feature extraction, classification, encryption of the
// result) with the application builder, maps it onto a 6x6 mesh with the
// Theorem-1 proportional mapping and compares EAR against SDR — exactly the
// workflow a user would follow for their own e-textile application.
//
// Run with:
//
//	go run ./examples/custom_application
package main

import (
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/app"
	"repro/internal/mapping"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	// Describe the application: per-job operation counts and the measured
	// energy of one operation of each module (in pJ).
	builder := app.NewBuilder("health-monitor")
	filter := builder.AddModule("sample-filter", 48.5)
	feature := builder.AddModule("feature-extract", 141.0)
	classify := builder.AddModule("classifier", 326.0)
	protect := builder.AddModule("result-encrypt", 176.55)
	application, err := builder.
		PacketBits(192).
		Repeat(12, filter, feature). // 12 windows of filtering + feature extraction
		Repeat(3, classify).         // 3 classifier passes (ensemble voting)
		Step(protect).               // encrypt the final verdict
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// Theorem 1 tells us how to allocate the 36 nodes across the modules.
	bound, err := analytic.MeshUpperBound(application, topology.DefaultSpacingCM, 60000, 36)
	if err != nil {
		log.Fatal(err)
	}
	alloc := stats.NewTable("Theorem-1 node allocation for the health monitor on a 6x6 mesh",
		"module", "ops/job", "H_i [pJ]", "optimal duplicates")
	for i, m := range application.Modules {
		alloc.AddRow(m.Name, m.OpsPerJob,
			fmt.Sprintf("%.1f", bound.NormalizedEnergies[i]),
			fmt.Sprintf("%.2f", bound.OptimalDuplicates[i]))
	}
	fmt.Print(alloc.Render())
	fmt.Printf("Upper bound on monitoring jobs: %.1f\n\n", bound.Jobs)

	// Simulate EAR and SDR with the proportional mapping derived from H_i.
	results := stats.NewTable("Simulated jobs completed (6x6 mesh, thin-film batteries)",
		"routing algorithm", "jobs completed", "achieved vs bound", "died because")
	for _, alg := range []string{scenario.AlgorithmEAR, scenario.AlgorithmSDR} {
		// Start from the paper's 6x6 platform and swap in the custom
		// application and its proportional mapping.
		strategy, err := scenario.Spec{Mesh: 6, Algorithm: alg}.Strategy()
		if err != nil {
			log.Fatal(err)
		}
		strategy.Run.App = application
		strategy.Mapper = mapping.Proportional{Weights: bound.NormalizedEnergies}
		res, err := strategy.Simulate()
		if err != nil {
			log.Fatal(err)
		}
		results.AddRow(alg, res.JobsCompleted,
			fmt.Sprintf("%.0f%%", 100*bound.Achieved(float64(res.JobsCompleted))),
			string(res.Reason))
	}
	fmt.Print(results.Render())
}
