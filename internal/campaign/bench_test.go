package campaign

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkCampaign measures a small serial campaign end-to-end and its two
// components: the bare simulations ("simulate-only") and the per-replicate
// aggregation fold ("observe"). Comparing run vs simulate-only shows the
// campaign layer adds near-zero overhead per replicate; the observe
// sub-benchmark reports the fold itself (with -benchmem it must show
// 0 allocs/op, the property TestCampaignAggregationAllocFree guards).
func BenchmarkCampaign(b *testing.B) {
	base := scenario.Spec{Mesh: 4, Mapping: scenario.MappingRandom}
	const replicates = 4

	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), newPool(1),
				Spec{Scenario: base, Replications: replicates, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("simulate-only", func(b *testing.B) {
		sp := Spec{Scenario: base, Replications: replicates, Seed: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < replicates; r++ {
				if _, err := sp.Replicate(r).Simulate(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("observe", func(b *testing.B) {
		out, err := base.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		res := &Result{}
		for i := 0; i < 8; i++ {
			res.observe(&out) // warm the quantile estimators
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res.observe(&out)
		}
	})
}
