package loadgen

// run.go executes a trace against a live cfserve: an open-loop
// dispatcher walks the schedule, sleeps until each record's arrival
// offset, and fires the request in its own goroutine — completions never
// gate arrivals, so server slowdowns surface as latency instead of
// silently reducing the offered load. A client-side in-flight cap
// (MaxInflight, generous by default) exists only to bound sockets and
// goroutines on a pathologically stuck server; waiting for it counts
// into the measured latency, exactly like any other queueing delay.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"pslocal/internal/cluster"
	"pslocal/internal/obs"
)

// Client drives a trace against one server.
type Client struct {
	// BaseURL is the server root, e.g. http://127.0.0.1:8355.
	BaseURL string
	// HTTP is the underlying client (nil = a default with a 30s timeout
	// and an uncapped connection pool per host).
	HTTP *http.Client
	// Speed scales the schedule: 1 replays arrival offsets as recorded,
	// 2 replays twice as fast, 0 disables pacing entirely (dispatch as
	// fast as the in-flight cap admits).
	Speed float64
	// MaxInflight bounds concurrently outstanding requests (0 = 512).
	MaxInflight int
	// Label tags job submissions (jobs endpoint only).
	Label string
}

// DefaultHTTPClient builds the client Run uses when none is supplied:
// the given per-request timeout over a connection pool wide enough that
// open-loop bursts reuse sockets instead of exhausting ephemeral ports.
func DefaultHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
}

// Report is the outcome of one executed run.
type Report struct {
	// Trace is the executed schedule with every record's Outcome filled
	// in (the same pointer passed to Run).
	Trace *Trace
	// Summary is the deterministic outcome summary.
	Summary Summary
	// Perf is the wall-clock timing report.
	Perf Perf
}

// Run executes the trace open-loop and fills in every record's Outcome.
// Bodies are materialized (and memoized) before each request's timer
// starts. The context cancels outstanding requests; a cancelled run
// still returns its report with the outcomes observed so far.
func (c *Client) Run(ctx context.Context, t *Trace) (*Report, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = DefaultHTTPClient(30 * time.Second)
	}
	maxInflight := c.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 512
	}
	base, err := url.Parse(c.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: base URL: %w", err)
	}

	// The job counters read before and after the run yield the jobs
	// queue-wait/run split.
	before := probeJobs(ctx, httpc, base)

	bodies := newBodyCache()
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range t.Records {
		rec := &t.Records[i]
		if c.Speed > 0 {
			target := start.Add(time.Duration(float64(rec.AtUS)/c.Speed) * time.Microsecond)
			if d := time.Until(target); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		if ctx.Err() != nil {
			rec.Outcome = &Outcome{Err: ctx.Err().Error()}
			continue
		}
		wg.Add(1)
		go func(rec *Record) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := c.do(ctx, httpc, base, bodies, rec)
			rec.Outcome = &o
		}(rec)
	}
	wg.Wait()
	durationS := time.Since(start).Seconds()

	var split *JobsSplit
	if before != nil {
		if after := probeJobs(ctx, httpc, base); after != nil {
			split = jobsDelta(before, after)
		}
	}
	return &Report{
		Trace:   t,
		Summary: summarize(t),
		Perf:    perfReport(t, durationS, split),
	}, nil
}

// do issues one request and parses the minimal outcome fields.
func (c *Client) do(ctx context.Context, httpc *http.Client, base *url.URL, bodies *bodyCache, rec *Record) Outcome {
	body, err := bodies.get(rec.Inst, rec.Format)
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	u := *base
	q := url.Values{}
	if rec.Format != "" {
		q.Set("format", rec.Format)
	}
	if rec.Params.K > 0 {
		q.Set("k", strconv.Itoa(rec.Params.K))
	}
	if rec.Params.Oracle != "" {
		q.Set("oracle", rec.Params.Oracle)
	}
	if rec.Params.Seed != 0 {
		q.Set("seed", strconv.FormatInt(rec.Params.Seed, 10))
	}
	if rec.Params.Workers != 0 {
		q.Set("workers", strconv.Itoa(rec.Params.Workers))
	}
	switch rec.Endpoint {
	case EndpointReduce:
		u.Path = "/v1/reduce"
	case EndpointMaxIS:
		u.Path = "/v1/maxis"
	case EndpointJobs:
		u.Path = "/v1/jobs"
		if rec.Params.Priority != "" {
			q.Set("priority", rec.Params.Priority)
		}
		if c.Label != "" {
			q.Set("label", c.Label)
		}
	}
	u.RawQuery = q.Encode()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), bytes.NewReader(body))
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	started := time.Now()
	resp, err := httpc.Do(req)
	if err != nil {
		return Outcome{LatencyUS: time.Since(started).Microseconds(), Err: err.Error()}
	}
	defer resp.Body.Close()
	// Minimal response schema shared by the three endpoints; unknown
	// fields are ignored.
	var parsed struct {
		Instance struct {
			Cache string `json:"cache"`
			Key   string `json:"key"`
		} `json:"instance"`
		Verified bool `json:"verified"`
		Size     int  `json:"size"`
		Result   struct {
			TotalColors int `json:"total_colors"`
		} `json:"result"`
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
		Error string `json:"error"`
	}
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&parsed)
	// Latency covers the full response read: the decode above consumes
	// the body, which is part of serving the request.
	latency := time.Since(started).Microseconds()

	o := Outcome{
		Status:    resp.StatusCode,
		OK:        resp.StatusCode >= 200 && resp.StatusCode < 300,
		Cache:     parsed.Instance.Cache,
		Verified:  parsed.Verified,
		Key:       parsed.Instance.Key,
		LatencyUS: latency,
		Backend:   resp.Header.Get(cluster.HeaderBackend),
		RequestID: resp.Header.Get(obs.RequestIDHeader),
	}
	if decodeErr != nil {
		o.Err = "decode: " + decodeErr.Error()
		o.OK = false
		return o
	}
	switch rec.Endpoint {
	case EndpointReduce:
		o.Size = parsed.Result.TotalColors
	case EndpointMaxIS:
		o.Size = parsed.Size
	case EndpointJobs:
		o.Key = parsed.Job.ID
	}
	if !o.OK && parsed.Error != "" {
		o.Err = parsed.Error
	}
	return o
}

// jobCounters is the slice of GET /metrics this package reads: the job
// subsystem's started/finished counters and wait/run time sums.
type jobCounters struct {
	started, finished, waitS, runS float64
}

// probeJobs reads the job counters from /metrics, returning nil on any
// failure or missing series — the split is an enrichment, never a reason
// to fail a run.
func probeJobs(ctx context.Context, httpc *http.Client, base *url.URL) *jobCounters {
	u := *base
	u.Path = "/metrics"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	e, err := obs.ParseExposition(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil
	}
	var c jobCounters
	for _, s := range []struct {
		name string
		dst  *float64
	}{
		{"pslocal_jobs_started_total", &c.started},
		{"pslocal_jobs_finished_total", &c.finished},
		{"pslocal_jobs_wait_seconds_total", &c.waitS},
		{"pslocal_jobs_run_seconds_total", &c.runS},
	} {
		v, ok := e.Value(s.name)
		if !ok {
			return nil
		}
		*s.dst = v
	}
	return &c
}

// jobsDelta derives the run's queue-wait/run split from two probes. A
// counter that went down means the server restarted between them, so no
// split is reported.
func jobsDelta(before, after *jobCounters) *JobsSplit {
	if after.started < before.started || after.finished < before.finished ||
		after.waitS < before.waitS || after.runS < before.runS {
		return nil
	}
	started := uint64(after.started - before.started)
	finished := uint64(after.finished - before.finished)
	if started == 0 && finished == 0 {
		return nil
	}
	s := &JobsSplit{
		Started:   started,
		Finished:  finished,
		WaitSumMS: (after.waitS - before.waitS) * 1e3,
		RunSumMS:  (after.runS - before.runS) * 1e3,
	}
	if started > 0 {
		s.WaitMeanMS = s.WaitSumMS / float64(started)
	}
	if finished > 0 {
		s.RunMeanMS = s.RunSumMS / float64(finished)
	}
	return s
}
