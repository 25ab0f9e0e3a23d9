package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve/store"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// cacheStats reads the result store's counters from GET /stats.
func cacheStats(t *testing.T, url string) store.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Cache
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const smallSpec = `{"Mesh":4,"ConcurrentJobs":2}`

// TestSimulateHitIsByteIdentical is the service's core contract: the second
// identical submission is a cache hit and its body is byte-identical to the
// cold compute.
func TestSimulateHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	r1, cold := post(t, ts.URL+"/simulate", smallSpec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: %d %s", r1.StatusCode, cold)
	}
	if got := r1.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("cold submit X-Cache = %q, want miss", got)
	}
	r2, hot := post(t, ts.URL+"/simulate", smallSpec)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("hot submit: %d %s", r2.StatusCode, hot)
	}
	if got := r2.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("hot submit X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatal("cache hit is not byte-identical to the cold compute")
	}
	if r1.Header.Get(HeaderFingerprint) != r2.Header.Get(HeaderFingerprint) {
		t.Fatal("fingerprints differ across identical submissions")
	}
	// A semantically identical spelling (defaults made explicit, different
	// field order) lands on the same cache entry.
	r3, alias := post(t, ts.URL+"/simulate",
		`{"ConcurrentJobs":2,"Algorithm":"EAR","Mesh":4,"Battery":"thinfilm"}`)
	if got := r3.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("aliased spelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, alias) {
		t.Fatal("aliased spelling returned different bytes")
	}
}

// TestSimulateMatchesAcrossWorkerCounts: the served bytes are independent of
// the server's admission width — the HTTP layer inherits the repo's
// worker-count determinism.
func TestSimulateMatchesAcrossWorkerCounts(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		resp, body := post(t, ts.URL+"/simulate", smallSpec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("workers=1 and workers=4 served different bytes")
	}
}

// TestSimulateSingleFlight: a herd of concurrent submissions over a few
// distinct specs runs ONE simulation per spec, and every client of a spec
// gets the same bytes. The eight specs are the hot set of the benchmark's
// serve-mixed workload (mesh 4/5 x EAR/SDR x 1/2 jobs), each submitted by 16
// clients at once.
func TestSimulateSingleFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var specs []string
	for _, mesh := range []int{4, 5} {
		for _, alg := range []string{"EAR", "SDR"} {
			for _, jobs := range []int{1, 2} {
				specs = append(specs, fmt.Sprintf(`{"Mesh":%d,"Algorithm":%q,"ConcurrentJobs":%d}`, mesh, alg, jobs))
			}
		}
	}
	const clients = 16
	type reply struct {
		code  int
		cache string
		body  []byte
	}
	replies := make([][clients]reply, len(specs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, spec := range specs {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Errorf("spec %d client %d: %v", i, c, err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Errorf("spec %d client %d: %v", i, c, err)
				}
				replies[i][c] = reply{resp.StatusCode, resp.Header.Get(HeaderCache), body}
			}()
		}
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, rs := range replies {
		misses := 0
		for c, r := range rs {
			if r.code != http.StatusOK {
				t.Fatalf("spec %s client %d: status %d %s", specs[i], c, r.code, r.body)
			}
			if !bytes.Equal(r.body, rs[0].body) {
				t.Fatalf("spec %s: client %d got different bytes", specs[i], c)
			}
			if r.cache == "miss" {
				misses++
			}
		}
		if misses > 1 {
			t.Errorf("spec %s: %d submissions led a flight, want at most 1", specs[i], misses)
		}
	}
	if st := cacheStats(t, ts.URL); st.Puts != uint64(len(specs)) {
		t.Fatalf("%d concurrent submissions over %d specs ran %d simulations, want %d",
			len(specs)*clients, len(specs), st.Puts, len(specs))
	}
}

// TestSimulateClientDisconnectCancelsRun: when the only client of a running
// simulation disconnects, the run is aborted and nothing is cached.
func TestSimulateClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// A mesh large enough to run for a while.
	big := `{"Mesh":16,"ConcurrentJobs":4}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/simulate", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the run is actually admitted, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request reported success")
	}
	// The flight must drain (the abort propagated) and nothing may be cached.
	deadline = time.Now().Add(30 * time.Second)
	for s.flights.inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted flight never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := cacheStats(t, ts.URL); st.Puts != 0 {
		t.Fatalf("aborted run was cached: %+v", st)
	}
}

// TestSimulateRejectsBadSpecs: malformed JSON, unknown fields and invalid
// configurations fail eagerly with 4xx — never a simulation.
func TestSimulateRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"Mesh":4,"Allgorithm":"SDR"}`, http.StatusBadRequest},
		{`{"Mesh":4} trailing`, http.StatusBadRequest},
		{`{"Mesh":0}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"Algorithm":"wavefront"}`, http.StatusUnprocessableEntity},
		// EAR Q values the incremental repair cannot route exactly.
		{`{"Mesh":4,"EARQ":1e-20}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"EARQ":-1}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"EARQ":1e10}`, http.StatusUnprocessableEntity},
		// Out-of-range values the fingerprint rejects before anything is queued; a
		// run that fails inside the worker would answer 500.
		{`{"Mesh":4,"FailedLinkFraction":1.5}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"FailedLinkFraction":-0.2}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"MaxCycles":-5}`, http.StatusUnprocessableEntity},
		{`{"Mesh":4,"BatteryLevels":-3}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/simulate", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.body, resp.StatusCode, body, c.want)
		}
		var e httpErrorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not structured: %s", c.body, body)
		}
	}
	if st := cacheStats(t, ts.URL); st.Puts != 0 {
		t.Fatalf("a rejected spec ran anyway: %+v", st)
	}
}

// TestInvalidSpecNeverAliasesACachedOne: SDR ignores BatteryLevels, so a
// normalization that only cleared the field would give the invalid spec
// below the fingerprint of the plain SDR spec and serve it that cached
// result. It must get a 422 on every endpoint, with nothing run.
func TestInvalidSpecNeverAliasesACachedOne(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const valid = `{"Mesh":4,"Algorithm":"SDR"}`
	const invalid = `{"Mesh":4,"Algorithm":"SDR","BatteryLevels":-1}`
	for _, req := range []struct{ path, body string }{
		{"/simulate", valid},
		{"/campaign", `{"Scenario":` + valid + `,"Replications":1}`},
	} {
		if resp, body := post(t, ts.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d (%s)", req.path, req.body, resp.StatusCode, body)
		}
	}
	puts := cacheStats(t, ts.URL).Puts
	for _, req := range []struct{ path, body string }{
		{"/simulate", invalid},
		{"/simulate/stream", invalid},
		{"/campaign", `{"Scenario":` + invalid + `,"Replications":1}`},
	} {
		resp, body := post(t, ts.URL+req.path, req.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s %s: status %d (%s), want %d",
				req.path, req.body, resp.StatusCode, body, http.StatusUnprocessableEntity)
		}
	}
	if got := cacheStats(t, ts.URL).Puts; got != puts {
		t.Fatalf("an invalid spec ran: Puts %d, want %d", got, puts)
	}
}

// TestMeshBoundOnEveryEndpoint: a mesh past MaxMesh gets a 422 on every
// endpoint that accepts a spec, while every registered scenario is still
// admitted, as a scenario and as a campaign.
func TestMeshBoundOnEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []string{`{"Mesh":65}`, `{"Mesh":100000}`} {
		for _, req := range []struct{ path, body string }{
			{"/simulate", spec},
			{"/simulate/stream", spec},
			{"/campaign", `{"Scenario":` + spec + `,"Replications":2}`},
		} {
			resp, body := post(t, ts.URL+req.path, req.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s %s: status %d (%s), want %d",
					req.path, req.body, resp.StatusCode, body, http.StatusUnprocessableEntity)
			}
		}
	}
	if st := cacheStats(t, ts.URL); st.Puts != 0 {
		t.Fatalf("an oversized spec ran anyway: %+v", st)
	}
	for _, sp := range scenario.All() {
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		if _, _, ok := readScenario(w, httptest.NewRequest("POST", "/simulate", bytes.NewReader(body))); !ok {
			t.Errorf("registered scenario %s rejected: %s", sp.Name, w.Body)
		}
		body = fmt.Appendf(nil, `{"Scenario":%s,"Replications":2}`, body)
		w = httptest.NewRecorder()
		if _, _, ok := readCampaign(w, httptest.NewRequest("POST", "/campaign", bytes.NewReader(body))); !ok {
			t.Errorf("registered scenario %s rejected as a campaign: %s", sp.Name, w.Body)
		}
	}
}

// TestCampaignEndpoint: hit/miss byte identity and a sane summary shape for
// campaigns.
func TestCampaignEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := `{"Scenario":{"Mesh":4},"Replications":5,"Seed":11}`
	r1, cold := post(t, ts.URL+"/campaign", spec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", r1.StatusCode, cold)
	}
	var sum CampaignSummary
	if err := json.Unmarshal(cold, &sum); err != nil {
		t.Fatalf("summary does not parse: %v", err)
	}
	if sum.Replications != 5 || sum.Seed != 11 || len(sum.Metrics) == 0 {
		t.Fatalf("summary malformed: %+v", sum)
	}
	for _, m := range sum.Metrics {
		if m.Count != 5 {
			t.Fatalf("metric %s folded %d replicates, want 5", m.Name, m.Count)
		}
	}
	// Another field order spells the same campaign: it hits the same entry.
	r2, hot := post(t, ts.URL+"/campaign",
		`{"Seed":11,"Replications":5,"Scenario":{"Mesh":4}}`)
	if got := r2.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("hot X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatal("campaign cache hit not byte-identical")
	}
	// The batch size is internal to the campaign runner, not a spec field.
	if r3, body := post(t, ts.URL+"/campaign",
		`{"Scenario":{"Mesh":4},"Replications":5,"Seed":11,"BatchSize":2}`); r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("BatchSize field: %d %s, want 400", r3.StatusCode, body)
	}
}

// TestStreamEndpoint: a cold stream carries progress events and ends with an
// uncached result record; a second stream short-circuits to a cached result
// whose payload is byte-identical.
func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	stream := func() (events []map[string]any, result map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/simulate/stream", "application/json", strings.NewReader(smallSpec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if rec["type"] == "result" {
				result = rec
			} else {
				events = append(events, rec)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return events, result
	}

	events, res := stream()
	if res == nil {
		t.Fatal("cold stream had no result record")
	}
	if res["cached"] != false {
		t.Fatal("cold stream claimed to be cached")
	}
	if len(events) == 0 {
		t.Fatal("cold stream emitted no progress events")
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, fmt.Sprint(e["type"]))
	}
	if !strings.Contains(strings.Join(kinds, ","), "finished") {
		t.Fatalf("no finished event in stream: %v", kinds)
	}

	events2, res2 := stream()
	if len(events2) != 0 {
		t.Fatalf("cached stream replayed %d events", len(events2))
	}
	if res2["cached"] != true {
		t.Fatal("second stream was not served from cache")
	}
	a, _ := json.Marshal(res["result"])
	b, _ := json.Marshal(res2["result"])
	if !bytes.Equal(a, b) {
		t.Fatal("streamed result differs between cold run and cache hit")
	}
}

// TestScenariosAndStatsEndpoints sanity-checks the two read-only endpoints.
func TestScenariosAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var infos []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) == 0 {
		t.Fatal("no scenarios listed")
	}
	seen := map[string]bool{}
	for _, in := range infos {
		if in.Name == "" || len(in.Fingerprint) != 64 {
			t.Fatalf("malformed scenario entry: %+v", in)
		}
		seen[in.Name] = true
	}
	if !seen["paper-default"] {
		t.Fatal("paper-default missing from listing")
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workers < 1 {
		t.Fatalf("stats report %d workers", st.Workers)
	}
}

// TestDiskCacheAcrossServers: a second server over the same cache directory
// answers from disk without recomputing.
func TestDiskCacheAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, cold := post(t, ts1.URL+"/simulate", smallSpec)

	_, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	resp, warm := post(t, ts2.URL+"/simulate", smallSpec)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("restarted server X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("disk-cached bytes differ from original compute")
	}
	st := cacheStats(t, ts2.URL)
	if st.DiskHits != 1 || st.Puts != 0 {
		t.Fatalf("restart did not serve from disk: %+v", st)
	}
}
