// Package serve turns the simulator into a long-lived service: an HTTP
// daemon accepting canonical scenario and campaign specs, executing them on
// a bounded admission queue and memoizing every result in a content-addressed
// store (internal/serve/store) keyed by the canonical fingerprints of
// internal/scenario and internal/campaign.
//
// The service leans entirely on the repo's determinism contract: a result is
// a pure function of its canonical spec, so the cache needs no invalidation
// and a cache hit is byte-identical to a cold recompute. Three layers
// compose behind one admission check:
//
//		request → fingerprint (admit?) → store (hit?) → flight group (join?) → queue → strategy → sim
//
//	  - The fingerprint admits the spec: scenario.Spec.Normalized accepts
//	    exactly the specs Strategy builds, so every other spec gets a 422
//	    here, and a hit or a join never builds a strategy.
//	  - The store answers repeats across time (and across restarts, with a
//	    disk layer).
//	  - The flight group answers repeats in flight: N concurrent identical
//	    submissions cost one simulation, and the computation survives
//	    individual client disconnects until the last waiter is gone.
//	  - The admission queue bounds concurrent simulations so a submission
//	    burst degrades into queueing latency instead of memory exhaustion.
//
// Progress streaming (POST /simulate/stream) bridges the engine's
// synchronous observer stream onto NDJSON via trace.Wire; a disconnecting
// client cancels its run through the engine's scheduling-boundary poll.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/serve/store"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MaxSpecBytes bounds request bodies: specs are small declarative documents;
// anything past this is a client error, not a simulation.
const MaxSpecBytes = 1 << 20

// MaxMesh bounds the mesh size the service admits. The controller's dense
// all-pairs matrices grow with the fourth power of the mesh size, so an
// unbounded request could exhaust memory once it runs. 64 is the largest
// registered scenario (big-mesh-64); the CLIs keep unbounded meshes.
const MaxMesh = 64

// boundMesh rejects a spec past MaxMesh. It runs before the spec is
// fingerprinted, so an oversized spec is answered without normalizing it.
func boundMesh(sp scenario.Spec) error {
	if sp.Mesh > MaxMesh {
		return fmt.Errorf("scenario %s: mesh size %d exceeds the service bound of %d", sp.Label(), sp.Mesh, MaxMesh)
	}
	return nil
}

// serial is the one-worker pool every served campaign runs its replicates on.
var serial = runner.New(runner.WithWorkers(1))

// Config configures a Server.
type Config struct {
	// Workers is the number of simulations admitted concurrently (the
	// admission-queue width). Non-positive selects runner.DefaultWorkers().
	Workers int
	// CacheBudget is the in-memory cache byte budget (non-positive selects
	// store.DefaultBudget).
	CacheBudget int64
	// CacheDir, when non-empty, adds a disk cache layer that survives
	// restarts.
	CacheDir string
}

// Server is the service core, independent of any particular listener: wrap
// Handler() in an http.Server (cmd/etserve) or drive it with httptest.
type Server struct {
	queue   *runner.Queue
	store   *store.Store
	flights *flightGroup
	start   time.Time
}

// New validates the configuration and builds a Server.
func New(cfg Config) (*Server, error) {
	var opts []store.Option
	if cfg.CacheDir != "" {
		opts = append(opts, store.WithDisk(cfg.CacheDir))
	}
	st, err := store.New(cfg.CacheBudget, opts...)
	if err != nil {
		return nil, err
	}
	return &Server{
		queue:   runner.NewQueue(cfg.Workers),
		store:   st,
		flights: newFlightGroup(),
		start:   time.Now(),
	}, nil
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /simulate", s.handleSimulate)
	mux.HandleFunc("POST /campaign", s.handleCampaign)
	mux.HandleFunc("POST /simulate/stream", s.handleStream)
	return instrument(mux)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, scenario.Infos())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Stats{
		Cache:         s.store.Stats(),
		InFlightRuns:  s.queue.InFlight(),
		QueueDepth:    s.queue.Depth(),
		QueuedKeys:    s.flights.inflight(),
		FlightWaiters: s.flights.waiters(),
		Workers:       s.queue.Workers(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleSimulate serves POST /simulate: a strict scenario spec in, the
// memoized sim.Result JSON out.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	sp, fp, ok := readScenario(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, store.Key(fp), fp.String(), func(ctx context.Context) ([]byte, error) {
		res, err := s.runScenario(ctx, sp)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
}

// readScenario reads, parses and fingerprints the scenario spec of a request
// body. On failure it writes the response itself — 400 for an unreadable or
// malformed body, 422 for a spec the service does not admit (past MaxMesh,
// or one Normalized rejects, so it has no fingerprint) — and reports false.
func readScenario(w http.ResponseWriter, r *http.Request) (sp scenario.Spec, fp scenario.Fingerprint, ok bool) {
	body, err := readBody(w, r)
	if err == nil {
		sp, err = scenario.ParseSpecJSON(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err = boundMesh(sp); err == nil {
		fp, err = sp.Fingerprint()
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	return sp, fp, true
}

// readCampaign is readScenario for a campaign spec, which also needs at
// least one replicate.
func readCampaign(w http.ResponseWriter, r *http.Request) (sp campaign.Spec, fp scenario.Fingerprint, ok bool) {
	body, err := readBody(w, r)
	if err == nil {
		sp, err = campaign.ParseSpecJSON(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if sp.Replications < 1 {
		err = fmt.Errorf("campaign: replications must be >= 1, got %d", sp.Replications)
	} else if err = boundMesh(sp.Scenario); err == nil {
		fp, err = sp.Fingerprint()
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	return sp, fp, true
}

// handleCampaign serves POST /campaign: a strict campaign spec in, the
// memoized aggregate summary out.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	sp, fp, ok := readCampaign(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, store.Key(fp), fp.String(), func(ctx context.Context) ([]byte, error) {
		var res *campaign.Result
		qerr := s.queue.Do(ctx, func(ctx context.Context) error {
			var err error
			// One worker per campaign: the admission queue is the
			// parallelism across requests, so a single campaign must not
			// also fan out and oversubscribe the host.
			res, err = campaign.Run(ctx, serial, sp)
			return err
		})
		if qerr != nil {
			return nil, qerr
		}
		if err := res.MismatchError(); err != nil {
			return nil, err
		}
		return json.Marshal(summarizeCampaign(fp.String(), res))
	})
}

// serveCached is the shared hit→join→compute path of the two compute
// endpoints. compute runs detached from this request (flight-owned context)
// and its bytes are stored before any waiter is released.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key store.Key, fp string, compute func(context.Context) ([]byte, error)) {
	w.Header().Set(HeaderFingerprint, fp)
	if v, ok := s.store.Get(key); ok {
		cacheHitsTotal.Inc()
		writeCached(w, "hit", v)
		return
	}
	stored := false
	v, shared, err := s.flights.do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		// A flight for key that finished between the Get above and this one
		// has already stored its result: serve it rather than compute again.
		if v, ok := s.store.Get(key); ok {
			stored = true
			return v, nil
		}
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		if err := s.store.Put(key, v); err != nil {
			// A failed persist degrades to recompute-next-time; the client
			// still gets its result.
			return v, nil
		}
		return v, nil
	})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is gone (or joined a flight that was aborted when its
		// last waiter left); there is nobody meaningful to answer.
		httpError(w, statusClientClosedRequest, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	case shared:
		cacheJoinsTotal.Inc()
		writeCached(w, "join", v)
	case stored:
		cacheHitsTotal.Inc()
		writeCached(w, "hit", v)
	default:
		cacheMissesTotal.Inc()
		writeCached(w, "miss", v)
	}
}

// runScenario builds and runs an admitted spec through the admission queue
// under ctx, refusing to return a truncated result. Only a cold run builds a
// strategy, and it does so once it holds a queue slot.
func (s *Server) runScenario(ctx context.Context, sp scenario.Spec, obs ...sim.Observer) (sim.Result, error) {
	var out sim.Result
	// Every served simulation feeds the engine-phase histograms on /metrics.
	// The observer is write-only telemetry, so the cached bytes stay
	// byte-identical to an uninstrumented run.
	obs = append(obs, trace.EngineMetrics{})
	err := s.queue.Do(ctx, func(ctx context.Context) error {
		st, err := sp.Strategy()
		if err != nil {
			return err
		}
		st.Run.Cancel = ctx.Done()
		st.Run.Observers = obs
		res, err := st.Simulate()
		if err != nil {
			return err
		}
		if res.Reason == sim.DeathCancelled {
			// Never hand a truncated prefix to the cache or a client.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return context.Canceled
		}
		out = res
		return nil
	})
	return out, err
}

// handleStream serves POST /simulate/stream: progress events as NDJSON while
// the simulation runs, closed by a "result" record. A cache hit skips
// straight to the result record (no events — the simulation didn't run); a
// cold run executes under the request's context, so a disconnecting client
// aborts its simulation at the next scheduling boundary. Streamed runs
// bypass flight joining (each stream owns its run's events) but still
// populate the store.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sp, fp, ok := readScenario(w, r)
	if !ok {
		return
	}
	key := store.Key(fp)

	w.Header().Set(HeaderFingerprint, fp.String())
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := func(v any) {
		enc.Encode(v) // best effort: a broken pipe surfaces as ctx cancellation
		if flusher != nil {
			flusher.Flush()
		}
	}

	type resultLine struct {
		Type        string          `json:"type"`
		Fingerprint string          `json:"fingerprint"`
		Cached      bool            `json:"cached"`
		Result      json.RawMessage `json:"result"`
	}
	if v, ok := s.store.Get(key); ok {
		cacheHitsTotal.Inc()
		line(resultLine{Type: "result", Fingerprint: fp.String(), Cached: true, Result: v})
		return
	}
	cacheMissesTotal.Inc()

	// The Wire sink runs synchronously on this handler's goroutine (the
	// queue executes fn on its caller), so writing to w needs no locking
	// and a slow client backpressures the simulation.
	wire := &trace.Wire{Sink: func(e trace.WireEvent) { line(e) }}
	res, err := s.runScenario(r.Context(), sp, wire)
	if err != nil {
		// Mid-stream errors can only be reported in-band.
		line(map[string]string{"type": "error", "error": err.Error()})
		return
	}
	v, err := json.Marshal(res)
	if err != nil {
		line(map[string]string{"type": "error", "error": err.Error()})
		return
	}
	s.store.Put(key, v)
	line(resultLine{Type: "result", Fingerprint: fp.String(), Cached: false, Result: v})
}

// statusClientClosedRequest is nginx's non-standard 499 ("client closed
// request"): the stock library has no code for "the requester vanished", and
// logging it as a 4xx keeps aborted submissions out of the 5xx error budget.
const statusClientClosedRequest = 499

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeCached writes a stored (or just-computed) response body verbatim —
// the bytes are the cache value, so hits and misses are byte-identical.
func writeCached(w http.ResponseWriter, status string, v []byte) {
	w.Header().Set(HeaderCache, status)
	w.Header().Set("Content-Type", "application/json")
	w.Write(v)
}

type httpErrorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(httpErrorBody{Error: err.Error()})
}
