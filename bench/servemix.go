package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// serveBlock is the request stream's unit: every block of serveBlock
// requests holds exactly one cold spec, at a seeded position; the rest go to
// the hot specs.
const serveBlock = 100

// hotSpecs are the eight distinct cells of etserve's -loadtest, the service's
// steady state of repeats.
var hotSpecs = func() [][]byte {
	var specs [][]byte
	for _, mesh := range []int{4, 5} {
		for _, alg := range []string{"EAR", "SDR"} {
			for _, jobs := range []int{1, 2} {
				specs = append(specs, fmt.Appendf(nil, `{"Mesh":%d,"Algorithm":%q,"ConcurrentJobs":%d}`, mesh, alg, jobs))
			}
		}
	}
	return specs
}()

// mix is the SplitMix64 finaliser: a bijective scrambler that turns
// (seed, counter) pairs into independent-looking 64-bit draws.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Salts keep the request stream's three draws independent.
const (
	coldPosSalt  = 0x636f6c64706f7331
	hotPickSalt  = 0x686f747069636b31
	coldSeedSalt = 0x636f6c6473656431
)

// draw is draw i of the seed's stream for one salt.
func draw(seed, salt uint64, i int) uint64 { return mix(mix(seed^salt) + uint64(i)) }

// schedule returns request i of the seed's stream: the index of a hot spec,
// or -1 and the number of the cold spec, which is the request's block.
func schedule(seed uint64, i int) (hot, block int) {
	block = i / serveBlock
	if uint64(i%serveBlock) == draw(seed, coldPosSalt, block)%serveBlock {
		return -1, block
	}
	return int(draw(seed, hotPickSalt, i) % uint64(len(hotSpecs))), block
}

// coldSpec is cold spec number block of the seed: a 5×5 mesh under a random
// mapping no other block shares, so the service computes and persists it.
func coldSpec(seed uint64, block int) []byte {
	return fmt.Appendf(nil, `{"Mesh":5,"Mapping":"random","MappingSeed":%d}`, draw(seed, coldSeedSalt, block))
}

// serveMixed drives an in-process etserve with a disk cache over loopback
// from `workers` closed-loop clients: 99% of the requests repeat the hot
// specs (cache reads), 1% are cold specs (simulation, then a disk write), in
// a seeded order.
type serveMixed struct {
	e *env
	// maxRequests ends the window early when positive.
	maxRequests int
	hotWant     [][]byte

	srv      *http.Server
	served   chan struct{} // closed when srv.Serve returns
	client   *http.Client
	base     string
	cacheDir string

	// The window so far: the next request of the stream, and the tallies
	// the traced pass reports.
	next                int
	requests, hits      int
	total, cold         time.Duration
	queueWaitS, engineS float64
	coldChecked         int
}

// coldChecks is how many cold responses of a window are re-simulated
// in-process and compared byte for byte.
const coldChecks = 4

type coldSample struct {
	block int
	body  []byte
}

func newServeMixed(e *env, maxRequests int) *serveMixed {
	return &serveMixed{e: e, maxRequests: maxRequests, hotWant: goldenLinesBytes(goldenServeHot)}
}

// setup starts a fresh service with an empty disk cache and computes the hot
// specs once, so that the window's hot requests are cache hits.
func (s *serveMixed) setup() error {
	s.close()
	dir, err := os.MkdirTemp(s.e.dir, "serve-cache-")
	if err != nil {
		return err
	}
	s.cacheDir = dir
	core, err := serve.New(serve.Config{Workers: workers, CacheDir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: core.Handler()}
	s.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}(s.srv, s.served)
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	for h, body := range hotSpecs {
		got, _, err := s.post(body)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, s.hotWant[h]) {
			s.e.checks.failf("serve-mixed: hot spec %s: response differs from the golden body", body)
		}
	}
	s.next, s.requests, s.hits, s.total, s.cold = 0, 0, 0, 0, 0
	s.queueWaitS, s.engineS, s.coldChecked = 0, 0, 0
	return nil
}

// post submits one spec and returns the body and the cache outcome.
func (s *serveMixed) post(spec []byte) ([]byte, string, error) {
	resp, err := s.client.Post(s.base+"/simulate", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /simulate %s: %s: %s", spec, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get(serve.HeaderCache), nil
}

// clientTally is one client's share of a segment.
type clientTally struct {
	lat         []time.Duration
	cold        time.Duration
	hits        int
	failed      int
	done        bool
	coldSamples []coldSample
}

func (s *serveMixed) measure(d time.Duration, _ bool, w *window) error {
	samplesPerClient := coldChecks - s.coldChecked
	before := metricSums()
	var next atomic.Int64
	next.Store(int64(s.next))
	tallies := make([]clientTally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tallies {
		wg.Add(1)
		go func(t *clientTally) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if s.maxRequests > 0 && i >= s.maxRequests {
					t.done = true
					return
				}
				hot, block := schedule(s.e.seed, i)
				spec := coldSpec(s.e.seed, block)
				if hot >= 0 {
					spec = hotSpecs[hot]
				}
				t0 := time.Now()
				body, outcome, err := s.post(spec)
				dt := time.Since(t0)
				t.lat = append(t.lat, dt)
				switch {
				case err != nil:
					t.failed++
					s.e.checks.failf("serve-mixed request %d: %v", i, err)
				case hot >= 0:
					if !bytes.Equal(body, s.hotWant[hot]) {
						t.failed++
						s.e.checks.failf("serve-mixed request %d: hot spec %s: response differs from the golden body", i, spec)
					}
					if outcome == "hit" {
						t.hits++
					}
				default:
					t.cold += dt
					if len(t.coldSamples) < samplesPerClient {
						t.coldSamples = append(t.coldSamples, coldSample{block: block, body: body})
					}
				}
			}
		}(&tallies[c])
	}
	wg.Wait()
	w.elapsed += time.Since(start)
	after := metricSums()

	s.next = int(next.Load())
	s.queueWaitS += after["runner_queue_wait_seconds"] - before["runner_queue_wait_seconds"]
	for name, v := range after {
		if strings.HasPrefix(name, "engine_phase_") {
			s.engineS += v - before[name]
		}
	}
	for _, t := range tallies {
		w.lat = append(w.lat, t.lat...)
		w.failed += t.failed
		w.done = w.done || t.done
		s.requests += len(t.lat)
		s.hits += t.hits
		s.cold += t.cold
		for _, d := range t.lat {
			s.total += d
		}
		for _, cs := range t.coldSamples {
			if s.coldChecked < coldChecks {
				s.coldChecked++
				if !s.coldAgrees(cs) {
					w.failed++
				}
			}
		}
	}
	return nil
}

// coldAgrees re-simulates a cold spec in-process and compares the bytes the
// service answered with.
func (s *serveMixed) coldAgrees(cs coldSample) bool {
	spec := coldSpec(s.e.seed, cs.block)
	want, err := simulateJSON(spec)
	if err != nil {
		s.e.checks.failf("serve-mixed: cold spec %s: %v", spec, err)
		return false
	}
	if !bytes.Equal(want, cs.body) {
		s.e.checks.failf("serve-mixed: cold spec %s: response differs from an in-process run", spec)
		return false
	}
	return true
}

// simulateJSON runs a spec body in-process and encodes the result as the
// service does.
func simulateJSON(spec []byte) ([]byte, error) {
	sp, err := scenario.ParseSpecJSON(spec)
	if err != nil {
		return nil, err
	}
	res, err := sp.Simulate()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// probeSpecs are the hot specs plus the first two cold specs.
func (s *serveMixed) probeSpecs() []scenario.Spec {
	var specs []scenario.Spec
	bodies := append(append([][]byte{}, hotSpecs...), coldSpec(s.e.seed, 0), coldSpec(s.e.seed, 1))
	for _, b := range bodies {
		sp, err := scenario.ParseSpecJSON(b)
		if err != nil {
			panic(err) // the bodies are built above
		}
		specs = append(specs, sp)
	}
	return specs
}

// layers reports the cache and the cold path from the last window: the
// admission queue's wait and the engine's phases come from the process's
// metrics registry, the one GET /metrics renders.
func (s *serveMixed) layers(v values) error {
	if s.requests == 0 || s.cold == 0 {
		return fmt.Errorf("the window sent no cold request")
	}
	v["serve.hit_ratio"] = float64(s.hits) / float64(s.requests)
	v["serve.cold_share"] = s.cold.Seconds() / s.total.Seconds()
	v["serve.queue_wait_share"] = s.queueWaitS / s.cold.Seconds()
	v["serve.simulate_share"] = s.engineS / s.cold.Seconds()
	return nil
}

func (s *serveMixed) close() {
	if s.srv != nil {
		s.srv.Close()
		<-s.served
		s.client.CloseIdleConnections()
		s.srv = nil
	}
	if s.cacheDir != "" {
		os.RemoveAll(s.cacheDir)
		s.cacheDir = ""
	}
}

// metricSums reads the _sum series of every histogram in the process's
// metrics registry, by histogram name.
func metricSums() map[string]float64 {
	var b bytes.Buffer
	metrics.Default().WritePrometheus(&b)
	sums := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasSuffix(name, "_sum") {
			continue
		}
		if x, err := strconv.ParseFloat(val, 64); err == nil {
			sums[strings.TrimSuffix(name, "_sum")] = x
		}
	}
	return sums
}

// goldenLinesBytes splits a golden file into its non-empty lines.
func goldenLinesBytes(s string) [][]byte {
	var out [][]byte
	for _, l := range goldenLines(s) {
		out = append(out, []byte(l))
	}
	return out
}
