// Smartshirt: the scenario sketched in Fig 3(a) of the paper — a shirt with a
// sensor block whose readings are encrypted by AES modules distributed over a
// woven 6x6 mesh before leaving the garment. Every simulated job carries a
// real 128-bit block through the mesh, and each completed job's ciphertext is
// verified against the reference cipher, demonstrating that the distributed
// execution is functionally exact, not just an energy model.
//
// The configuration is the registered "smartshirt-verified" scenario, run
// with two trace observers attached: a job-latency histogram and the
// per-frame timeline whose battery columns are the fleet-wide discharge
// curve, both fed by the simulator's event stream (the timeline is the CSV
// `etsim -scenario smartshirt-verified -trace` writes).
//
// Run with:
//
//	go run ./examples/smartshirt
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	spec, ok := scenario.Lookup("smartshirt-verified")
	if !ok {
		log.Fatal("smartshirt-verified scenario not registered")
	}

	latency := &trace.LatencyHistogram{}
	timeline := &trace.Timeline{}
	res, err := spec.Simulate(latency, timeline)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Smart shirt: distributed AES-128 over a 6x6 woven mesh (EAR routing)")
	fmt.Printf("\nSensor blocks encrypted before the garment died: %d\n", res.JobsCompleted)
	fmt.Printf("Ciphertexts verified against the reference cipher: %d (mismatches: %d)\n",
		res.PayloadJobsVerified, res.PayloadMismatches)
	fmt.Printf("Garment lifetime: %d cycles (%d TDMA frames); died because: %s\n",
		res.LifetimeCycles, res.Frames, res.Reason)
	fmt.Printf("Dead nodes at end of life: %d of %d\n\n", res.DeadNodes, res.MeshNodes)

	fmt.Print(latency.Table(8).Render())
	if rows := timeline.Rows(); len(rows) > 0 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Printf("\nFleet battery: mean %.0f pJ at frame %d, mean %.0f pJ at frame %d (min %.0f pJ)\n\n",
			first.MeanRemainingPJ, first.Frame, last.MeanRemainingPJ, last.Frame, last.MinRemainingPJ)
	}

	table := stats.NewTable("Per-node wear at end of life (module 1 = SubBytes/ShiftRows, 2 = MixColumns, 3 = KeyExpansion/AddRoundKey)",
		"node", "module", "operations", "packets relayed", "energy delivered [pJ]", "dead")
	for _, n := range res.Nodes {
		table.AddRow(int(n.Node), n.Module, n.Operations, n.PacketsRelayed,
			fmt.Sprintf("%.0f", n.DeliveredPJ), n.Dead)
	}
	fmt.Print(table.Render())
}
