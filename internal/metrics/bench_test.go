package metrics_test

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkMetrics measures the instrumentation costs:
//
//   - counter/gauge/histogram: the per-update cost of the three value types
//     (must report 0 allocs/op — guarded by TestUpdatesAllocFree);
//   - sim4x4/disabled: the 4×4 full-run benchmark with the metrics subsystem
//     linked in but no phase observer attached. Compare against
//     sim.BenchmarkSimulate4x4EAR run on the same machine: the engine's
//     disabled path is one slice-length check per frame, so the delta must
//     stay within noise (≤1%);
//   - sim4x4/instrumented: the same run with trace.EngineMetrics attached
//     (the span clock live and every phase feeding histograms) — the cost
//     etserve pays per served simulation.
func BenchmarkMetrics(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_counter_total", "")
	g := reg.Gauge("bench_gauge", "")
	h := reg.Histogram("bench_histogram_seconds", "", metrics.DurationBuckets())

	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i&1023) * 1e-5)
		}
	})

	sim4x4 := func(b *testing.B, obs ...sim.Observer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := scenario.Spec{Mesh: 4}.Simulate(obs...)
			if err != nil {
				b.Fatal(err)
			}
			if res.JobsCompleted == 0 {
				b.Fatal("benchmark run completed no jobs")
			}
		}
	}
	b.Run("sim4x4/disabled", func(b *testing.B) { sim4x4(b) })
	b.Run("sim4x4/instrumented", func(b *testing.B) { sim4x4(b, trace.EngineMetrics{}) })
}
