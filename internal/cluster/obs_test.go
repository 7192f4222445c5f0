package cluster

// obs_test.go covers the gateway's observability surface: request-id
// propagation (minted when absent, forwarded verbatim when valid, both
// echoed on the response) and the Prometheus exposition on GET /metrics,
// which every scrape here parses with the exposition validator.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pslocal/internal/obs"
)

func TestGatewayRequestIDPropagation(t *testing.T) {
	var seenID atomic.Value // string: the request id the backend received
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		seenID.Store(r.Header.Get(obs.RequestIDHeader))
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`+"\n")
	}))
	defer backend.Close()
	g := newTestGateway(t, Config{Backends: []string{backend.URL}})

	body := "hypergraph 3 1\n0 1 2\n"

	// No client id: the gateway mints one, forwards it, and echoes it.
	rec := postReduce(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	minted := rec.Header().Get(obs.RequestIDHeader)
	if !obs.ValidRequestID(minted) {
		t.Fatalf("gateway echoed invalid minted id %q", minted)
	}
	if got, _ := seenID.Load().(string); got != minted {
		t.Fatalf("backend saw id %q, gateway echoed %q", got, minted)
	}

	// A valid client id survives the proxy hop untouched.
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	req.Header.Set(obs.RequestIDHeader, "gw-test-0001")
	rr := httptest.NewRecorder()
	g.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get(obs.RequestIDHeader); got != "gw-test-0001" {
		t.Fatalf("client id not echoed: got %q", got)
	}
	if got, _ := seenID.Load().(string); got != "gw-test-0001" {
		t.Fatalf("backend saw id %q, want the client's gw-test-0001", got)
	}

	// An invalid client id is replaced before it reaches the backend.
	req = httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	req.Header.Set(obs.RequestIDHeader, "not a valid id!")
	rr = httptest.NewRecorder()
	g.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	replaced := rr.Header().Get(obs.RequestIDHeader)
	if replaced == "not a valid id!" || !obs.ValidRequestID(replaced) {
		t.Fatalf("invalid id not replaced: got %q", replaced)
	}
	if got, _ := seenID.Load().(string); got != replaced {
		t.Fatalf("backend saw id %q, gateway echoed %q", got, replaced)
	}
}

// scrapeGateway serves GET /metrics and parses it with the exposition
// validator.
func scrapeGateway(t *testing.T, g *Gateway) *obs.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	e, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v", err)
	}
	return e
}

// gatewayMetric reads one series, failing the test when it is missing.
func gatewayMetric(t *testing.T, e *obs.Exposition, name string, labels ...obs.Label) float64 {
	t.Helper()
	v, ok := e.Value(name, labels...)
	if !ok {
		t.Fatalf("/metrics has no %s%v series", name, labels)
	}
	return v
}

func TestGatewayMetricsEndpoint(t *testing.T) {
	b1, b2 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL}})

	body := "hypergraph 3 1\n0 1 2\n"
	if rec := postReduce(t, g, body); rec.Code != http.StatusOK {
		t.Fatalf("reduce status %d: %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 text exposition", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE cfgate_requests_total counter",
		"# TYPE cfgate_proxy_duration_seconds histogram",
		"cfgate_requests_total 2", // the reduce above plus this scrape
		"cfgate_healthy_backends 2",
		`cfgate_backend_healthy{backend="` + b1.srv.URL + `"} 1`,
		`cfgate_backend_healthy{backend="` + b2.srv.URL + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Exactly one backend served the reduce; its proxy histogram counted it.
	count := strings.Count(text, "cfgate_proxy_duration_seconds_count")
	if count != 2 {
		t.Errorf("want one proxy histogram per backend (2), found %d _count series", count)
	}

	// The exposition is valid and names the routing policy.
	e, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v", err)
	}
	if got := gatewayMetric(t, e, "cfgate_info", obs.L("policy", string(PolicyAffinity))); got != 1 {
		t.Errorf(`cfgate_info{policy="affinity"} = %g, want 1`, got)
	}
	var attempts float64
	for _, b := range []string{b1.srv.URL, b2.srv.URL} {
		attempts += gatewayMetric(t, e, "cfgate_proxy_duration_seconds_count", obs.L("backend", b))
	}
	if attempts != 1 {
		t.Errorf("proxy attempts across backends = %g, want 1", attempts)
	}
}
