package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pslocal/internal/graphio"
	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	names := []string{"http://c", "http://a", "http://b"}
	r1 := NewRing(names, 64)
	r2 := NewRing([]string{"http://b", "http://a", "http://c"}, 64)
	for _, key := range []string{"k1", "k2", "deadbeef", ""} {
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner of %q depends on input order", key)
		}
		c := r1.Candidates(key)
		if len(c) != 3 {
			t.Fatalf("candidates(%q) = %v, want all 3 backends", key, c)
		}
		seen := map[string]bool{}
		for _, b := range c {
			seen[b] = true
		}
		if len(seen) != 3 {
			t.Fatalf("candidates(%q) repeat: %v", key, c)
		}
		if c[0] != r1.Owner(key) {
			t.Fatalf("candidates(%q)[0] = %s, owner = %s", key, c[0], r1.Owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for b, n := range counts {
		if n < 500 { // perfectly even would be 1000
			t.Errorf("backend %s owns only %d/3000 keys", b, n)
		}
	}
}

func TestRingStabilityUnderRemoval(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	partial := NewRing([]string{"http://a", "http://b"}, 0)
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if full.Owner(key) != "http://c" && full.Owner(key) != partial.Owner(key) {
			moved++
		}
	}
	if moved > n/10 {
		t.Errorf("removing one backend moved %d/%d keys owned by others", moved, n)
	}
}

func TestHealthEjectionAndReadmission(t *testing.T) {
	h := newHealth([]string{"b1", "b2"}, ProbeConfig{FailAfter: 2, Interval: 10 * time.Millisecond}, nil)
	if !h.healthy("b1") {
		t.Fatal("backends must start healthy")
	}
	h.reportFailure("b1")
	if !h.healthy("b1") {
		t.Fatal("one failure must not eject at FailAfter=2")
	}
	h.reportFailure("b1")
	if h.healthy("b1") {
		t.Fatal("b1 should be ejected after 2 consecutive failures")
	}
	if snap := h.snapshot()["b1"]; snap.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", snap.Ejections)
	}
	// Failures while ejected grow the backoff; success re-admits.
	h.reportFailure("b1")
	h.reportSuccess("b1")
	if !h.healthy("b1") {
		t.Fatal("success must re-admit")
	}
	if snap := h.snapshot()["b1"]; snap.Fails != 0 {
		t.Fatalf("fails = %d after success, want 0", snap.Fails)
	}
	// A success in between resets the consecutive counter.
	h.reportFailure("b2")
	h.reportSuccess("b2")
	h.reportFailure("b2")
	if !h.healthy("b2") {
		t.Fatal("non-consecutive failures must not eject")
	}
}

func TestHealthProberEjectsAndReadmits(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	h := newHealth([]string{backend.URL}, ProbeConfig{
		Interval:   5 * time.Millisecond,
		FailAfter:  2,
		MaxBackoff: 20 * time.Millisecond,
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); h.run(ctx) }()

	waitFor := func(want bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for h.healthy(backend.URL) != want {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	ready.Store(false)
	waitFor(false, "prober never ejected a 503ing backend")
	ready.Store(true)
	waitFor(true, "prober never re-admitted a recovered backend")
	cancel()
	<-done
}

// solveBackend is a stub cfserve: it records instance-key headers and
// serves a canned JSON body, optionally refusing with 503.
type solveBackend struct {
	name     string
	srv      *httptest.Server
	hits     atomic.Int64
	lastKey  atomic.Value // string
	refusing atomic.Bool
}

func newSolveBackend(t *testing.T, name string) *solveBackend {
	t.Helper()
	b := &solveBackend{name: name}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if b.refusing.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		b.hits.Add(1)
		b.lastKey.Store(r.Header.Get(HeaderInstanceKey))
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%q}`+"\n", b.name)
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postReduce(t *testing.T, g *Gateway, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

func TestGatewayAffinityPinsInstances(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL}})

	body := "hypergraph 3 1\n0 1 2\n"
	var first string
	for i := 0; i < 8; i++ {
		rec := postReduce(t, g, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		backend := rec.Header().Get(HeaderBackend)
		if backend == "" {
			t.Fatal("response missing backend header")
		}
		if first == "" {
			first = backend
		} else if backend != first {
			t.Fatalf("same body routed to %s then %s", first, backend)
		}
	}
	// The forwarded key matches the solver's own derivation.
	wantKey := solver.InstanceKey(solver.KindHypergraph, graphio.FormatAuto.String(), []byte(body))
	total := b1.hits.Load() + b2.hits.Load() + b3.hits.Load()
	if total != 8 {
		t.Fatalf("backends saw %d requests, want 8", total)
	}
	for _, b := range []*solveBackend{b1, b2, b3} {
		if b.hits.Load() > 0 {
			if got, _ := b.lastKey.Load().(string); got != wantKey {
				t.Fatalf("backend %s saw key %q, want %q", b.name, got, wantKey)
			}
		}
	}
}

func TestGatewayRoundRobinSpreads(t *testing.T) {
	b1, b2 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2")
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL},
		Policy:   PolicyRoundRobin,
	})
	body := "hypergraph 3 1\n0 1 2\n"
	for i := 0; i < 6; i++ {
		if rec := postReduce(t, g, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if b1.hits.Load() != 3 || b2.hits.Load() != 3 {
		t.Fatalf("round-robin split %d/%d, want 3/3", b1.hits.Load(), b2.hits.Load())
	}
}

func TestGatewayRetriesRefusingBackend(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL}, Retries: 2})

	body := "hypergraph 3 1\n0 1 2\n"
	rec := postReduce(t, g, body)
	owner := rec.Header().Get(HeaderBackend)
	byURL := map[string]*solveBackend{b1.srv.URL: b1, b2.srv.URL: b2, b3.srv.URL: b3}

	// The affinity owner starts refusing (draining): requests reroute to
	// the next candidate with zero client-visible failures.
	byURL[owner].refusing.Store(true)
	rec = postReduce(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after owner started refusing: %s", rec.Code, rec.Body)
	}
	if next := rec.Header().Get(HeaderBackend); next == owner || next == "" {
		t.Fatalf("rerouted to %q, want a different backend", next)
	}
	if gatewayMetric(t, scrapeGateway(t, g), "cfgate_rerouted_total") == 0 {
		t.Fatal("reroute not counted")
	}
}

func TestGatewayRetriesDeadBackendAndEjects(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL},
		Retries:  2,
		Probe:    ProbeConfig{FailAfter: 1},
	})
	body := "hypergraph 3 1\n0 1 2\n"
	owner := postReduce(t, g, body).Header().Get(HeaderBackend)
	byURL := map[string]*solveBackend{b1.srv.URL: b1, b2.srv.URL: b2, b3.srv.URL: b3}
	byURL[owner].srv.Close() // SIGKILL equivalent: connection refused

	rec := postReduce(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after owner died: %s", rec.Code, rec.Body)
	}
	// The transport failure ejected the owner passively (FailAfter=1), so
	// the next request skips it outright.
	if g.hlth.healthy(owner) {
		t.Fatal("dead backend still admitted after a transport failure")
	}
	rec = postReduce(t, g, body)
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderBackend) == owner {
		t.Fatalf("status %d backend %q: dead owner not skipped", rec.Code, rec.Header().Get(HeaderBackend))
	}
}

func TestGatewayAllBackendsDown(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}, Retries: 2})
	b.refusing.Store(true)
	rec := postReduce(t, g, "hypergraph 2 1\n0 1\n")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every backend refusing, want 503", rec.Code)
	}
	// The backend's own 503 (with its Retry-After) is relayed verbatim.
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("relayed 503 lost its Retry-After header")
	}
	if gatewayMetric(t, scrapeGateway(t, g), "cfgate_failures_total") == 0 {
		t.Fatal("exhausted plan not counted as a failure")
	}
}

func TestGatewayJobGet404Failover(t *testing.T) {
	const id = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	mkBackend := func(has bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if !has {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintln(w, `{"error":"jobs: no such job"}`)
				return
			}
			fmt.Fprintf(w, `{"job":{"id":%q,"state":"done"}}`+"\n", id)
		}))
	}
	misses1, misses2, owner := mkBackend(false), mkBackend(false), mkBackend(true)
	defer misses1.Close()
	defer misses2.Close()
	defer owner.Close()
	g := newTestGateway(t, Config{Backends: []string{misses1.URL, misses2.URL, owner.URL}})

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the 404s skipped: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get(HeaderBackend) != owner.URL {
		t.Fatalf("served by %q, want the owning backend", rec.Header().Get(HeaderBackend))
	}

	// Unknown everywhere stays a 404 for the client.
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+strings.Repeat("b", 64), nil)
	rec = httptest.NewRecorder()
	gAllMiss := newTestGateway(t, Config{Backends: []string{misses1.URL, misses2.URL}})
	gAllMiss.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d for a job no backend knows, want 404", rec.Code)
	}
}

func TestGatewayJobListMergesAndDedupes(t *testing.T) {
	mkBackend := func(ids ...string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			jobs := make([]map[string]any, 0, len(ids))
			for _, id := range ids {
				jobs = append(jobs, map[string]any{"job": map[string]any{"id": id, "state": "done"}})
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"count": len(jobs), "jobs": jobs})
		}))
	}
	s1, s2 := mkBackend("id-a", "id-b"), mkBackend("id-b", "id-c")
	defer s1.Close()
	defer s2.Close()
	g := newTestGateway(t, Config{Backends: []string{s1.URL, s2.URL}})

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		Count int `json:"count"`
		Jobs  []struct {
			Job struct {
				ID string `json:"id"`
			} `json:"job"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 3 || len(doc.Jobs) != 3 {
		t.Fatalf("merged %d jobs, want 3 (id-b deduped): %s", doc.Count, rec.Body)
	}
	seen := map[string]bool{}
	for _, j := range doc.Jobs {
		if seen[j.Job.ID] {
			t.Fatalf("job %s duplicated in the merge", j.Job.ID)
		}
		seen[j.Job.ID] = true
	}
}

func TestGatewayReadyzReflectsBackends(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d with a healthy backend", rec.Code)
	}
	g.hlth.reportFailure(b.srv.URL)
	g.hlth.reportFailure(b.srv.URL)
	g.hlth.reportFailure(b.srv.URL)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with every backend ejected, want 503", rec.Code)
	}
}

func TestGatewayMetricsCountsPerBackend(t *testing.T) {
	b1, b2 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL}, Policy: PolicyRoundRobin})
	body := "hypergraph 3 1\n0 1 2\n"
	for i := 0; i < 4; i++ {
		postReduce(t, g, body)
	}
	e := scrapeGateway(t, g)
	// The four reduces plus this scrape.
	if got := gatewayMetric(t, e, "cfgate_requests_total"); got != 5 {
		t.Fatalf("cfgate_requests_total = %g, want 5", got)
	}
	rows := 0
	for _, s := range e.Samples {
		if s.Name == "cfgate_backend_proxied_total" {
			rows++
		}
	}
	if rows != 2 {
		t.Fatalf("%d cfgate_backend_proxied_total series, want one per backend (2)", rows)
	}
	var proxied float64
	for _, b := range []string{b1.srv.URL, b2.srv.URL} {
		label := obs.L("backend", b)
		proxied += gatewayMetric(t, e, "cfgate_backend_proxied_total", label)
		if inflight := gatewayMetric(t, e, "cfgate_backend_inflight", label); inflight != 0 {
			t.Fatalf("in-flight %g on %s after requests completed", inflight, b)
		}
	}
	if proxied != 4 {
		t.Fatalf("proxied sum = %g, want 4", proxied)
	}
}

func TestGatewayRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends must fail")
	}
	if _, err := New(Config{Backends: []string{"not-a-url"}}); err == nil {
		t.Error("non-http backend must fail")
	}
	if _, err := New(Config{Backends: []string{"http://a"}, Policy: "bogus"}); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestGatewayBadFormatParam(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?format=bogus", strings.NewReader("x"))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d for a bad format, want 400", rec.Code)
	}
	if b.hits.Load() != 0 {
		t.Fatal("bad request must not reach a backend")
	}
}

func TestLeastLoadedPrefersIdleBackend(t *testing.T) {
	lt := newLoadTracker([]string{"a", "b"})
	h := newHealth([]string{"a", "b"}, ProbeConfig{}, nil)
	ring := NewRing([]string{"a", "b"}, 0)
	bal := &balancer{ring: ring, health: h, loads: lt}
	release := lt.acquire("a")
	defer release()
	if plan := bal.plan("any", PolicyLeastLoaded); plan[0] != "b" {
		t.Fatalf("least-loaded picked %s with a busy, want b", plan[0])
	}
}

func TestAffinitySaturationSpills(t *testing.T) {
	lt := newLoadTracker([]string{"a", "b", "c"})
	h := newHealth([]string{"a", "b", "c"}, ProbeConfig{}, nil)
	ring := NewRing([]string{"a", "b", "c"}, 0)
	bal := &balancer{ring: ring, health: h, loads: lt, saturation: 2}
	key := "some-key"
	owner := ring.Owner(key)
	r1, r2 := lt.acquire(owner), lt.acquire(owner)
	defer r1()
	defer r2()
	plan := bal.plan(key, PolicyAffinity)
	if plan[0] == owner {
		t.Fatalf("saturated owner %s still planned first", owner)
	}
	// Below saturation the owner leads.
	r1()
	r2()
	if plan := bal.plan(key, PolicyAffinity); plan[0] != owner {
		t.Fatalf("idle owner %s not planned first: %v", owner, plan)
	}
}

// TestGatewayMethodNotAllowed checks that a known path hit with the
// wrong method surfaces the mux's 405 + Allow (not a blanket 404) in
// the JSON error envelope, and a truly unknown path stays a 404.
func TestGatewayMethodNotAllowed(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})

	req := httptest.NewRequest(http.MethodPut, "/v1/reduce", strings.NewReader("x"))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/reduce = %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") == "" {
		t.Fatal("405 missing Allow header")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("405 Content-Type %q, want the JSON envelope", ct)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("405 body %q not the JSON error envelope (%v)", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", rec.Code)
	}
	if b.hits.Load() != 0 {
		t.Fatal("unroutable requests must not reach a backend")
	}
}

// TestGatewayForwardsClientHeaders checks the proxy hop is faithful:
// end-to-end headers (auth, accept) reach the backend, hop-by-hop
// headers and anything named by Connection are stripped, and a
// client-forged instance-key header never survives — the gateway's own
// derivation wins.
func TestGatewayForwardsClientHeaders(t *testing.T) {
	var seen atomic.Value // http.Header
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		seen.Store(r.Header.Clone())
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(backend.Close)
	g := newTestGateway(t, Config{Backends: []string{backend.URL}})

	body := "hypergraph 3 1\n0 1 2\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("Accept", "application/json")
	req.Header.Set("X-Custom-Conn", "dropme")
	req.Header.Set("Connection", "X-Custom-Conn")
	req.Header.Set(HeaderInstanceKey, strings.Repeat("a", 64)) // forged
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	got, _ := seen.Load().(http.Header)
	if got == nil {
		t.Fatal("backend never saw the request")
	}
	if got.Get("Authorization") != "Bearer tok" || got.Get("Accept") != "application/json" {
		t.Fatalf("end-to-end headers dropped: %v", got)
	}
	if got.Get("X-Custom-Conn") != "" || got.Get("Connection") != "" {
		t.Fatalf("hop-by-hop headers forwarded: %v", got)
	}
	wantKey := solver.InstanceKey(solver.KindHypergraph, graphio.FormatAuto.String(), []byte(body))
	if got.Get(HeaderInstanceKey) != wantKey {
		t.Fatalf("instance key %q reached the backend, want the gateway's %q", got.Get(HeaderInstanceKey), wantKey)
	}
}
