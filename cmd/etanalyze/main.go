// Command etanalyze evaluates the Theorem-1 analytical upper bound (Eq 2) and
// the optimal module duplicate counts (Eq 3) for an application on a mesh,
// without running any simulation. By default it analyses the paper's AES-128
// application; custom applications can be described with the -modules flag.
//
// Examples:
//
//	etanalyze -mesh 4                          # Table 2's J* for the 4x4 mesh
//	etanalyze -mesh 4,5,6,7,8                  # the whole Table 2 column, analysed in parallel
//	etanalyze -mesh 8 -battery 60000
//	etanalyze -mesh 6 -modules "10:120.1,9:73.34,11:176.55" -packet 261
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/analytic"
	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	var (
		meshSizes  = flag.String("mesh", "4", "square mesh size(s), comma-separated (node budget K = mesh^2 each)")
		batteryPJ  = flag.Float64("battery", battery.DefaultNominalPJ, "battery budget B per node in pJ")
		spacing    = flag.Float64("spacing", topology.DefaultSpacingCM, "inter-node wire length in cm")
		packetBits = flag.Int("packet", app.DefaultPacketBits, "packet size in bits")
		modules    = flag.String("modules", "", "custom application as comma-separated f:E pairs, e.g. \"10:120.1,9:73.34,11:176.55\"")
		workers    = flag.Int("workers", 0, "worker goroutines for multi-mesh analyses (0 = one per CPU)")
	)
	flag.Parse()

	sizes, err := cli.ParseInts(*meshSizes, "mesh size")
	if err != nil {
		fatal(err)
	}
	application, err := buildApplication(*modules, *packetBits)
	if err != nil {
		fatal(err)
	}
	// Analyse every requested mesh in parallel, then print the reports in
	// input order: the pool preserves it.
	pool := runner.New(runner.WithWorkers(*workers))
	reports, err := runner.Map(pool, sizes, func(_ int, n int) (string, error) {
		return analyseMesh(application, *spacing, *batteryPJ, n)
	})
	if err != nil {
		fatal(err)
	}
	for i, report := range reports {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(report)
	}
}

// analyseMesh renders the full Theorem-1 report for one mesh size.
func analyseMesh(application *app.Application, spacing, batteryPJ float64, meshSize int) (string, error) {
	if meshSize < 1 {
		return "", fmt.Errorf("mesh size must be at least 1, got %d", meshSize)
	}
	k := meshSize * meshSize
	bound, err := analytic.MeshUpperBound(application, spacing, batteryPJ, k)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Application %s on a %dx%d mesh (K = %d nodes, B = %g pJ per battery)\n\n",
		application.Name, meshSize, meshSize, k, batteryPJ)
	t := stats.NewTable("Per-module analysis (Theorem 1)",
		"module", "f_i", "E_i [pJ]", "c_i [pJ]", "H_i [pJ]", "optimal duplicates n_i*")
	c := analytic.CommunicationEnergyPerOp(application, spacing)
	for i, m := range application.Modules {
		t.AddRow(fmt.Sprintf("%d (%s)", m.ID, m.Name), m.OpsPerJob, m.EnergyPerOpPJ,
			fmt.Sprintf("%.2f", c),
			fmt.Sprintf("%.2f", bound.NormalizedEnergies[i]),
			fmt.Sprintf("%.2f", bound.OptimalDuplicates[i]))
	}
	fmt.Fprintln(&sb, t.Render())
	fmt.Fprintf(&sb, "Total normalized energy per job: %.2f pJ\n", bound.TotalNormalizedEnergy())
	fmt.Fprintf(&sb, "Upper bound J* on completed jobs: %.2f (at most %d whole jobs)\n",
		bound.Jobs, bound.CompletedJobsLimit())
	return sb.String(), nil
}

func buildApplication(spec string, packetBits int) (*app.Application, error) {
	if spec == "" {
		a := app.AES128()
		a.PacketBits = packetBits
		return a, a.Validate()
	}
	b := app.NewBuilder("custom").PacketBits(packetBits)
	var flows []struct {
		id  app.ModuleID
		ops int
	}
	for i, part := range strings.Split(spec, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("module %d: want f:E, got %q", i+1, part)
		}
		ops, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("module %d: bad operation count %q", i+1, fields[0])
		}
		e, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("module %d: bad energy %q", i+1, fields[1])
		}
		id := b.AddModule(fmt.Sprintf("module-%d", i+1), e)
		flows = append(flows, struct {
			id  app.ModuleID
			ops int
		}{id, ops})
	}
	// Interleave the operations round-robin so the flow is a valid sequence.
	remaining := true
	for round := 0; remaining; round++ {
		remaining = false
		for _, f := range flows {
			if round < f.ops {
				b.Step(f.id)
				remaining = remaining || round+1 < f.ops
			}
		}
	}
	return b.Build()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etanalyze:", err)
	os.Exit(1)
}
