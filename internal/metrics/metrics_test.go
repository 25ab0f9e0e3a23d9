package metrics

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs completed.")
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %d, want 7", got)
	}
	g.Set(-5)
	if got := g.Value(); got != -5 {
		t.Fatalf("Value() = %d, want -5 (gauges are signed)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	counts, sum, total := h.snapshot()
	// 0.05 and 0.1 land in le=0.1 (bounds are inclusive); 0.5 in le=1;
	// 5 in le=10; 50 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], w)
		}
	}
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	if math.Abs(sum-55.65) > 1e-9 {
		t.Errorf("sum = %g, want 55.65", sum)
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", DurationBuckets())
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if _, _, total := h.snapshot(); total != goroutines*per {
		t.Fatalf("total = %d, want %d", total, goroutines*per)
	}
	if got, want := h.Sum(), float64(goroutines*per)*0.001; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum() = %g, want %g", got, want)
	}
}

// TestUpdatesAllocFree pins the acceptance criterion: Counter, Gauge, and
// Histogram updates are allocation-free, so always-on instrumentation in
// the engine's frame loop and the runner's cell loop costs no garbage.
func TestUpdatesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DurationBuckets())
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter updates: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(7) }); n != 0 {
		t.Errorf("Gauge updates: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Errorf("Histogram.Observe: %v allocs/op, want 0", n)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup", "")
	mustPanic("duplicate name", func() { r.Gauge("dup", "") })
	mustPanic("empty name", func() { r.Counter("", "") })
	mustPanic("invalid char", func() { r.Counter("a-b", "") })
	mustPanic("leading digit", func() { r.Counter("9lives", "") })
	mustPanic("non-increasing bounds", func() { r.Histogram("h", "", []float64{1, 1}) })
	mustPanic("bad ExponentialBuckets", func() { ExponentialBuckets(0, 2, 4) })
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_requests_total", "Requests served.")
	g := r.Gauge("aa_depth", "Queue depth.")
	h := r.Histogram("mm_latency_seconds", "Request latency.", []float64{0.5, 2})
	c.Inc()
	c.Inc()
	c.Inc()
	g.Set(-1)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_depth Queue depth.
# TYPE aa_depth gauge
aa_depth -1
# HELP mm_latency_seconds Request latency.
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{le="0.5"} 1
mm_latency_seconds_bucket{le="2"} 2
mm_latency_seconds_bucket{le="+Inf"} 3
mm_latency_seconds_sum 100.25
mm_latency_seconds_count 3
# HELP zz_requests_total Requests served.
# TYPE zz_requests_total counter
zz_requests_total 3
`
	if got := buf.String(); got != want {
		t.Errorf("WritePrometheus mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", b, want)
		}
	}
	d := DurationBuckets()
	if len(d) != 24 || d[0] != 1e-6 {
		t.Fatalf("DurationBuckets() = len %d first %g, want 24 buckets from 1e-6", len(d), d[0])
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return the same registry")
	}
}
