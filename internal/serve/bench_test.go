package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeHit measures an in-process POST /simulate cache hit, cycling
// through the eight hot specs of the bench module's serve-mixed workload
// (4x4 and 5x5, EAR and SDR, one and two concurrent jobs). A hit reads,
// parses and fingerprints the spec, then writes the stored body: it builds
// no strategy.
func BenchmarkServeHit(b *testing.B) {
	var specs [][]byte
	for _, mesh := range []int{4, 5} {
		for _, alg := range []string{"EAR", "SDR"} {
			for _, jobs := range []int{1, 2} {
				specs = append(specs, fmt.Appendf(nil, `{"Mesh":%d,"Algorithm":%q,"ConcurrentJobs":%d}`, mesh, alg, jobs))
			}
		}
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func(spec []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(spec)))
		if w.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", spec, w.Code, w.Body)
		}
		return w
	}
	for _, spec := range specs {
		post(spec) // the cold run that stores the result
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(specs[i%len(specs)]); w.Header().Get(HeaderCache) != "hit" {
			b.Fatalf("%s: X-Cache %q, want hit", specs[i%len(specs)], w.Header().Get(HeaderCache))
		}
	}
}
