// Package metrics is a dependency-free, allocation-free-in-steady-state
// instrumentation registry for the simulator's serving and engine layers.
//
// Three value types cover the usual telemetry shapes:
//
//   - Counter: a monotonically increasing uint64 (requests served, cache
//     hits). Updates are single atomic adds.
//   - Gauge: a signed instantaneous level (queue depth, bytes resident).
//     Updates are atomic stores/adds.
//   - Histogram: a fixed-bucket distribution (latencies, phase durations).
//     Observe is a linear bucket scan plus two atomic operations and never
//     allocates; bucket bounds are frozen at registration.
//
// Metrics are registered once — typically in package var blocks — against a
// Registry keyed by name, and rendered on demand in Prometheus text
// exposition format (WritePrometheus). The process-global registry (Default)
// is what etserve's GET /metrics serves.
//
// Determinism contract: metrics are write-only from the simulation's point
// of view. Nothing in this package is ever read back into scheduling,
// routing, or result computation, so instrumented and uninstrumented runs
// produce byte-identical outputs (guarded in CI by the -spans byte-diff
// step and the worker-count determinism sweeps).
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use, but counters should normally be created through Registry.Counter so
// they render on scrapes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. An observation lands in
// the first bucket whose upper bound is >= the value; values above the last
// bound land in the implicit +Inf bucket. Bounds are set at registration and
// never change, so Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("metrics: histogram bounds must be strictly increasing (bounds[%d]=%g, bounds[%d]=%g)",
				i-1, bounds[i-1], i, bounds[i])
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns the per-bucket (non-cumulative) counts, the sum, and the
// total count, read bucket by bucket (scrapes tolerate torn reads across
// buckets; each individual bucket is atomic).
func (h *Histogram) snapshot() (counts []uint64, sum float64, total uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, h.Sum(), total
}

// ExponentialBuckets returns count upper bounds starting at start and
// multiplying by factor: start, start*factor, start*factor^2, ...
// It panics on invalid arguments; bucket layouts are compile-time decisions.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("metrics: invalid ExponentialBuckets(%g, %g, %d)", start, factor, count))
	}
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets is the standard latency layout used across the repo:
// 24 exponential buckets from 1µs to ~8.4s (factor 2), in seconds. It
// covers everything from a sub-microsecond engine phase (first bucket) to
// a 64x64 full recompute.
func DurationBuckets() []float64 { return ExponentialBuckets(1e-6, 2, 24) }
