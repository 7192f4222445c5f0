package main

// metrics_test.go covers the latency histograms on GET /metrics:
// per-endpoint tracks populate as requests land, the solve samples split
// into cache_hit vs cache_miss (a cold parse followed by a hot
// resubmission must feed one sample into each), job submissions feed
// jobs_submit, and the job wait/run sums cfload reads are exported.
// Every scrape is parsed by the exposition validator, so each of these
// tests also checks the live exposition stays scrape-valid.

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"pslocal/internal/obs"
)

// scrapeMetrics fetches GET /metrics and parses it with the exposition
// validator.
func scrapeMetrics(t *testing.T, baseURL string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	e, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v", err)
	}
	return e
}

// metricValue reads one series, failing the test when it is missing.
func metricValue(t *testing.T, e *obs.Exposition, name string, labels ...obs.Label) float64 {
	t.Helper()
	v, ok := e.Value(name, labels...)
	if !ok {
		t.Fatalf("/metrics has no %s%v series", name, labels)
	}
	return v
}

// trackValue reads one latency-track histogram sample: suffix is _count,
// _sum or _bucket (with le).
func trackValue(t *testing.T, e *obs.Exposition, track, suffix string, extra ...obs.Label) float64 {
	t.Helper()
	return metricValue(t, e, "pslocal_request_duration_seconds"+suffix, append([]obs.Label{obs.L("track", track)}, extra...)...)
}

func TestMetricsLatencyTracks(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)

	// Before any traffic every track exists and is empty.
	e := scrapeMetrics(t, ts.URL)
	for _, track := range []string{"reduce", "maxis", "jobs_submit", "cache_hit", "cache_miss"} {
		if got := trackValue(t, e, track, "_count"); got != 0 {
			t.Fatalf("track %q nonzero before traffic: count %g", track, got)
		}
	}

	// Cold reduce then identical resubmission: one miss, one hit.
	var out json.RawMessage
	resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold reduce status %d", resp.StatusCode)
	}
	resp = postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm reduce status %d", resp.StatusCode)
	}

	e = scrapeMetrics(t, ts.URL)
	if got := trackValue(t, e, "reduce", "_count"); got != 2 {
		t.Fatalf("reduce count = %g, want 2", got)
	}
	if got := trackValue(t, e, "cache_miss", "_count"); got != 1 {
		t.Fatalf("cache_miss count = %g, want 1 (the cold parse)", got)
	}
	if got := trackValue(t, e, "cache_hit", "_count"); got != 1 {
		t.Fatalf("cache_hit count = %g, want 1 (the resubmission)", got)
	}
	// A timed track has a positive sum (mean) and a sample past the
	// zero-microsecond bucket (max); the validator already checked its
	// buckets are cumulative, which keeps quantiles monotone.
	for _, track := range []string{"reduce", "cache_miss"} {
		sum := trackValue(t, e, track, "_sum")
		zero := trackValue(t, e, track, "_bucket", obs.L("le", "0"))
		if sum <= 0 || zero >= trackValue(t, e, track, "_count") {
			t.Fatalf("track %q has no timing: sum %g, le=0 bucket %g", track, sum, zero)
		}
	}

	// A failing request must not touch the histograms.
	resp, err := http.Post(ts.URL+"/v1/reduce?k=0", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status %d", resp.StatusCode)
	}
	if got := trackValue(t, scrapeMetrics(t, ts.URL), "reduce", "_count"); got != 2 {
		t.Fatalf("failed request entered the reduce histogram: count %g", got)
	}

	// A job submission lands in jobs_submit, not in the solve tracks.
	var jobOut struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	resp = postInstance(t, ts.URL+"/v1/jobs?k=2&oracle=greedy-mindeg", body, &jobOut)
	if resp.StatusCode != http.StatusAccepted || jobOut.Job.ID == "" {
		t.Fatalf("job submit: status %d, %+v", resp.StatusCode, jobOut)
	}
	e = scrapeMetrics(t, ts.URL)
	if got := trackValue(t, e, "jobs_submit", "_count"); got != 1 {
		t.Fatalf("jobs_submit count = %g, want 1", got)
	}
	if got := trackValue(t, e, "reduce", "_count"); got != 2 {
		t.Fatalf("job submission leaked into the reduce track: count %g", got)
	}
	// Job wait/run sums and their started/finished denominators are the
	// series cfload reads for its wait/run split.
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, e, "pslocal_jobs_finished_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
		e = scrapeMetrics(t, ts.URL)
	}
	started := metricValue(t, e, "pslocal_jobs_started_total")
	wait := metricValue(t, e, "pslocal_jobs_wait_seconds_total")
	run := metricValue(t, e, "pslocal_jobs_run_seconds_total")
	if started < 1 || run < 0 || wait < 0 {
		t.Fatalf("jobs split implausible: started %g, wait %gs, run %gs", started, wait, run)
	}
}

func TestMetricsMaxISLatencyTrack(t *testing.T) {
	_, ts := newTestServer(t)
	// A small path graph in the native edge-list form.
	body := []byte("graph 4 3\n0 1\n1 2\n2 3\n")
	var out json.RawMessage
	resp := postInstance(t, ts.URL+"/v1/maxis?oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxis status %d: %s", resp.StatusCode, out)
	}
	e := scrapeMetrics(t, ts.URL)
	if got := trackValue(t, e, "maxis", "_count"); got != 1 {
		t.Fatalf("maxis count = %g, want 1", got)
	}
	if got := trackValue(t, e, "cache_miss", "_count"); got != 1 {
		t.Fatalf("maxis cold solve missing from cache_miss: count %g", got)
	}
}
