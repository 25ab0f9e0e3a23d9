// Command etserve runs the e-textile simulator as a long-lived HTTP service:
// clients POST canonical scenario or campaign specs and receive memoized
// results from a content-addressed cache (see internal/serve). Identical
// submissions — concurrent or repeated, across restarts with -cache-dir —
// cost one simulation.
//
// Endpoints:
//
//	GET  /healthz          liveness probe
//	GET  /scenarios        machine-readable registry of named scenarios
//	GET  /stats            cache and admission-queue counters
//	POST /simulate         scenario spec JSON -> sim result JSON (cached)
//	POST /campaign         campaign spec JSON -> aggregate summary (cached)
//	POST /simulate/stream  scenario spec JSON -> NDJSON progress + result
//
// Examples:
//
//	etserve -addr :8321 -cache-dir /var/cache/etserve
//	curl -s localhost:8321/scenarios | jq '.[].name'
//	curl -s -XPOST localhost:8321/simulate -d '{"Mesh":5}'
//	etserve -loadtest            # self-contained load test -> BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8321", "listen address")
		workers     = flag.Int("workers", 0, "concurrent simulations admitted (0 = one per CPU)")
		cacheBudget = flag.Int64("cache-budget", 0, "in-memory result cache budget in bytes (0 = default)")
		cacheDir    = flag.String("cache-dir", "", "directory for the disk cache layer (empty = memory only)")
		loadtest    = flag.Bool("loadtest", false, "run the self-contained load test instead of serving, then exit")
		ltRequests  = flag.Int("loadtest-requests", 2000, "total submissions for -loadtest")
		ltClients   = flag.Int("loadtest-clients", 1000, "concurrent clients for -loadtest")
		ltOut       = flag.String("loadtest-out", "BENCH_serve.json", "output file for the -loadtest report")
	)
	flag.Parse()

	cfg := serve.Config{Workers: *workers, CacheBudget: *cacheBudget, CacheDir: *cacheDir}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	if *loadtest {
		if err := runLoadTest(srv, *ltRequests, *ltClients, *ltOut); err != nil {
			fatal(err)
		}
		return
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdown, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdown)
	}()
	fmt.Fprintf(os.Stderr, "etserve: listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// Connection bounds for every server etserve starts. A client that opens a
// connection must send its request headers within readHeaderTimeout, and a
// keep-alive connection with no request in flight is closed after
// idleTimeout. There is deliberately no write timeout: /simulate/stream
// writes NDJSON progress for as long as the run takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns an http.Server for h on addr with the connection
// bounds above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// loadReport is the schema of BENCH_serve.json.
type loadReport struct {
	Requests    int     `json:"requests"`
	Clients     int     `json:"clients"`
	Errors      int     `json:"errors"`
	DurationMS  float64 `json:"duration_ms"`
	Throughput  float64 `json:"throughput_rps"`
	LatencyMS   latency `json:"latency_ms"`
	Cache       counts  `json:"cache"`
	ServerStats any     `json:"server_stats"`
}

type latency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

type counts struct {
	Hit     int     `json:"hit"`
	Join    int     `json:"join"`
	Miss    int     `json:"miss"`
	HitRate float64 `json:"hit_rate"`
}

// runLoadTest hammers an in-process instance of the service with a small set
// of distinct specs from many concurrent clients and reports latency
// percentiles and the cache hit rate. The spec set is deliberately tiny
// relative to the request count: a result service's steady state is mostly
// repeats, and the interesting numbers are the cost of a hit and how well
// the flight group collapses the initial thundering herd.
func runLoadTest(srv *serve.Server, requests, clients int, outPath string) error {
	if requests < 1 || clients < 1 {
		return fmt.Errorf("loadtest: requests and clients must be >= 1")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer("", srv.Handler())
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// Eight distinct cells from the paper's small-mesh regime.
	var specs []string
	for _, mesh := range []int{4, 5} {
		for _, alg := range []string{"EAR", "SDR"} {
			for _, jobs := range []int{1, 2} {
				specs = append(specs,
					fmt.Sprintf(`{"Mesh":%d,"Algorithm":%q,"ConcurrentJobs":%d}`, mesh, alg, jobs))
			}
		}
	}

	transport := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}

	var (
		next      atomic.Int64
		errs      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		cacheTal  = map[string]int{}
		start     = make(chan struct{})
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				spec := specs[i%len(specs)]
				t0 := time.Now()
				resp, err := client.Post(base+"/simulate", "application/json", strings.NewReader(spec))
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				el := time.Since(t0)
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				mu.Lock()
				latencies = append(latencies, el)
				cacheTal[resp.Header.Get(serve.HeaderCache)]++
				mu.Unlock()
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)

	if len(latencies) == 0 {
		return fmt.Errorf("loadtest: every request failed")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	ok := len(latencies)
	hits, joins, misses := cacheTal["hit"], cacheTal["join"], cacheTal["miss"]
	report := loadReport{
		Requests:   requests,
		Clients:    clients,
		Errors:     int(errs.Load()),
		DurationMS: float64(wall) / float64(time.Millisecond),
		Throughput: float64(ok) / wall.Seconds(),
		LatencyMS: latency{
			P50:  pct(0.50),
			P90:  pct(0.90),
			P99:  pct(0.99),
			Max:  float64(latencies[ok-1]) / float64(time.Millisecond),
			Mean: float64(sum) / float64(ok) / float64(time.Millisecond),
		},
		Cache: counts{
			Hit:     hits,
			Join:    joins,
			Miss:    misses,
			HitRate: float64(hits+joins) / float64(ok),
		},
		ServerStats: srv.Store().Stats(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("loadtest: %d requests, %d clients: p50 %.2fms p99 %.2fms, hit rate %.1f%%, %d errors -> %s\n",
		requests, clients, report.LatencyMS.P50, report.LatencyMS.P99,
		100*report.Cache.HitRate, report.Errors, outPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etserve:", err)
	os.Exit(1)
}
