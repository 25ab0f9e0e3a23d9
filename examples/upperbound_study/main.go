// Upper-bound study: evaluates Theorem 1 for every mesh size of the paper and
// compares the analytical limit with what EAR actually achieves in simulation
// under both the ideal and the thin-film battery models — a superset of the
// paper's Table 2.
//
// Run with:
//
//	go run ./examples/upperbound_study
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	table := stats.NewTable("Theorem 1 vs simulated EAR",
		"mesh", "J* (Theorem 1)", "EAR, ideal battery", "achieved", "EAR, thin-film battery")
	for _, n := range []int{4, 5, 6, 7, 8} {
		ideal, err := scenario.Spec{Mesh: n, Battery: scenario.BatteryIdeal}.Strategy()
		if err != nil {
			log.Fatal(err)
		}
		idealRes, err := ideal.Simulate()
		if err != nil {
			log.Fatal(err)
		}
		bound, err := ideal.UpperBound()
		if err != nil {
			log.Fatal(err)
		}
		thinRes, err := scenario.Spec{Mesh: n}.Simulate()
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow(
			fmt.Sprintf("%dx%d", n, n),
			fmt.Sprintf("%.2f", bound.Jobs),
			idealRes.JobsCompleted,
			fmt.Sprintf("%.0f%%", 100*bound.Achieved(float64(idealRes.JobsCompleted))),
			thinRes.JobsCompleted,
		)
	}
	fmt.Print(table.Render())
	fmt.Println("\nNo routing strategy can exceed J*; the gap is due to multi-hop communication on the")
	fmt.Println("mesh (the bound assumes single-hop), control-information exchange and imperfect balance.")
}
