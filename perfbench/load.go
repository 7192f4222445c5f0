package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pslocal/internal/cluster"
	"pslocal/internal/loadgen"
	"pslocal/internal/obs"
)

// request is one generated request, body encoded before any clock runs.
type request struct {
	Rec  loadgen.Record
	Body []byte
	// Query is the URL path and query string; the base URL is the
	// fleet's entry.
	Query string
	// Due is the scheduled send time as an offset from the phase start.
	Due time.Duration
	// Reused marks a body sent earlier in the same schedule (same
	// instance, format and endpoint), i.e. a cache candidate.
	Reused bool
}

// result is what the generator saw for one request; Body is decoded and
// checked only after the clock stopped.
type result struct {
	Status  int
	Body    []byte
	Backend string
	Err     error
	Lag     time.Duration // how late the generator released the send
	Latency time.Duration // scheduled send to body read (open loop only)
	Wire    time.Duration // actual send to body read
}

// prepare materialises every body of the trace with loadgen.InstSpec.Build
// and renders the URLs. label tags job submissions; traced asks the
// server to embed its span tree.
func prepare(t *loadgen.Trace, label string, traced bool) ([]request, error) {
	bodies := make(map[string][]byte)
	seen := make(map[string]bool)
	reqs := make([]request, len(t.Records))
	for i, rec := range t.Records {
		key := bodyKey(rec)
		body, ok := bodies[key]
		if !ok {
			var err error
			if body, err = rec.Inst.Build(rec.Format); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			bodies[key] = body
		}
		use := rec.Endpoint + "/" + key
		reqs[i] = request{Rec: rec, Body: body, Query: query(rec, label, traced),
			Due: time.Duration(rec.AtUS) * time.Microsecond, Reused: seen[use]}
		seen[use] = true
	}
	return reqs, nil
}

// bodyKey names a body: the same instance in the same format is the same
// bytes.
func bodyKey(rec loadgen.Record) string {
	return fmt.Sprintf("%+v@%s", rec.Inst, rec.Format)
}

// query renders the endpoint path and parameters cfload would send.
func query(rec loadgen.Record, label string, traced bool) string {
	q := url.Values{}
	q.Set("format", rec.Format)
	if p := rec.Params; p.K > 0 {
		q.Set("k", strconv.Itoa(p.K))
	}
	if p := rec.Params; p.Oracle != "" {
		q.Set("oracle", p.Oracle)
	}
	if p := rec.Params; p.Seed != 0 {
		q.Set("seed", strconv.FormatInt(p.Seed, 10))
	}
	if rec.Endpoint == loadgen.EndpointJobs {
		if rec.Params.Priority != "" {
			q.Set("priority", rec.Params.Priority)
		}
		q.Set("label", label)
	}
	if traced {
		q.Set("trace", "1")
	}
	return "/v1/" + rec.Endpoint + "?" + q.Encode()
}

// newClient returns a client holding at most one connection, so n
// clients mean at most n connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send issues one request and reads the whole response body.
func send(ctx context.Context, c *http.Client, base string, r *request, rid string) result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Query, bytes.NewReader(r.Body))
	if err != nil {
		return result{Err: err}
	}
	req.Header.Set(obs.RequestIDHeader, rid)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return result{Err: err, Wire: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{Status: resp.StatusCode, Body: body, Err: err,
		Backend: resp.Header.Get(cluster.HeaderBackend), Wire: time.Since(start)}
}

// requestID names request i of a phase for the server's traces.
func requestID(phase string, seed int64, i int) string {
	return fmt.Sprintf("pb-%s-%d-%06d", phase, seed, i)
}

// openLoop sends every request at its scheduled time over at most conns
// connections. An arrival that finds every connection busy waits for
// one, and its latency still runs from the scheduled send, so client
// side queueing is counted (no coordinated omission).
func openLoop(ctx context.Context, base string, reqs []request, conns int, phase string, seed int64) []result {
	res := make([]result, len(reqs))
	due := make(chan int, len(reqs)) // sized to the number of sends: the scheduler never blocks
	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(due)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := range reqs {
			at := start.Add(reqs[i].Due)
			if !sleepUntil(ctx, at) {
				return
			}
			res[i].Lag = time.Since(at)
			due <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := range due {
				lag := res[i].Lag
				r := send(ctx, client, base, &reqs[i], requestID(phase, seed, i))
				r.Lag = lag
				r.Latency = time.Since(start.Add(reqs[i].Due))
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil returns at t, or false once ctx is done. It sleeps in
// nanosleep on a thread of its own: an idle Go process's timers fire up
// to a millisecond late (the poller waits in whole milliseconds), which
// would add that much lag to every send, and spinning instead would take
// CPU from the servers under test. The caller must hold
// runtime.LockOSThread.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just wakes early; the loop re-sleeps
	}
}

// closedResult is the closed-loop phase: requests sent by conns callers
// that each wait for their reply before sending the next.
type closedResult struct {
	Reqs    []request // what was sent, in completion order per caller
	Results []result  // aligned with Reqs
	Elapsed time.Duration
}

// closedLoop replays reqs in list order, round after round, with conns
// closed-loop callers until budget has passed. The clock stops when the
// last response has been read and every job submitted in the phase is
// terminal.
func closedLoop(ctx context.Context, base string, reqs []request, conns int, budget time.Duration, phase string, seed int64) (closedResult, error) {
	var next atomic.Int64
	start := time.Now()
	stopAt := start.Add(budget)
	sent := make([][]int, conns)
	got := make([][]result, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				n := int(next.Add(1) - 1)
				r := send(ctx, client, base, &reqs[n%len(reqs)], requestID(phase, seed, n))
				sent[c] = append(sent[c], n%len(reqs))
				got[c] = append(got[c], r)
			}
		}()
	}
	wg.Wait()
	var cr closedResult
	var ids []string
	for c := range sent {
		for k, i := range sent[c] {
			cr.Reqs = append(cr.Reqs, reqs[i])
			cr.Results = append(cr.Results, got[c][k])
			if reqs[i].Rec.Endpoint == loadgen.EndpointJobs {
				if id, state := submitted(got[c][k].Body); id != "" && !terminal(state) {
					ids = append(ids, id)
				}
			}
		}
	}
	c := newClient()
	defer c.CloseIdleConnections()
	err := awaitJobs(ctx, c, base, ids)
	cr.Elapsed = time.Since(start)
	return cr, err
}

// jobEnvelope is the part of a job response the benchmark reads.
type jobEnvelope struct {
	Job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	} `json:"job"`
	WaitMS float64         `json:"wait_ms"`
	RunMS  float64         `json:"run_ms"`
	Result json.RawMessage `json:"result"`
}

// submitted extracts the job id and state from a submit response.
func submitted(body []byte) (id, state string) {
	var env jobEnvelope
	if json.Unmarshal(body, &env) != nil {
		return "", ""
	}
	return env.Job.ID, env.Job.State
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// awaitJobs polls each job until it is terminal.
func awaitJobs(ctx context.Context, c *http.Client, base string, ids []string) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			env, err := getJob(ctx, c, base, id)
			if err != nil {
				return err
			}
			if terminal(env.Job.State) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after 60s", id, env.Job.State)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// getJob fetches one job's state, with its result document once done.
func getJob(ctx context.Context, c *http.Client, base, id string) (jobEnvelope, error) {
	var env jobEnvelope
	err := getJSON(ctx, c, base+"/v1/jobs/"+url.PathEscape(id), &env)
	return env, err
}

func getJSON(ctx context.Context, c *http.Client, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
