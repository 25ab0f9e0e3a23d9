package optimize

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// BenchmarkOptimize measures the cost of the search building blocks. The
// analytic-eval surrogate must stay allocation-free (guarded by
// TestHillClimbInnerLoopAllocFree), because the hill-climb inner loop runs
// it once per cache-missing proposal.
func BenchmarkOptimize(b *testing.B) {
	sp := scenario.Spec{Mesh: 8}
	obj, err := NewAnalytic(sp)
	if err != nil {
		b.Fatal(err)
	}
	p := Problem{Spec: sp, Objective: obj, Budget: 400, Seed: 1}
	start, err := p.start()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("analytic-eval-8x8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Evaluate(start); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("propose-move", func(b *testing.B) {
		b.ReportAllocs()
		next := start.Clone()
		moves := campaign.Stream{Base: 1}
		for i := 0; i < b.N; i++ {
			w := uint64(i) * moveWords
			next.CopyFrom(start)
			next.applyMove(moves.Word(w), moves.Word(w+1), moves.Word(w+2), moves.Word(w+3))
		}
	})

	b.Run("climb-analytic-8x8", func(b *testing.B) {
		b.ReportAllocs()
		evals := 0
		for i := 0; i < b.N; i++ {
			rpt, err := MultiRestart{Restarts: 1}.Optimize(workers(1), p)
			if err != nil {
				b.Fatal(err)
			}
			evals += rpt.Evals
		}
		b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	})
}
