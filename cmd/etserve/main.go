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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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
	)
	flag.Parse()

	cfg := serve.Config{Workers: *workers, CacheBudget: *cacheBudget, CacheDir: *cacheDir}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etserve:", err)
	os.Exit(1)
}
