package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"pslocal/internal/core"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/loadgen"
	"pslocal/internal/obs"
	"pslocal/internal/verify"
)

// outcome is one checked response.
type outcome struct {
	OK  bool  // 2xx, verified by the server and again here
	Err error // why not OK
	// Fields read from the response.
	Cache     string
	ElapsedMS float64
	Result    *core.Result // reduce and job results
	Set       []int32      // maxis
	JobID     string
	Trace     *obs.TraceSnapshot
}

// instances parses each generated body once, so checks compare against
// the instance the benchmark generated, not one the server returned.
type instances map[string]any

func (in instances) get(r *request) (any, error) {
	key := bodyKey(r.Rec)
	if v, ok := in[key]; ok {
		return v, nil
	}
	f, err := graphio.ParseFormat(r.Rec.Format)
	if err != nil {
		return nil, err
	}
	var v any
	if r.Rec.Inst.Kind == loadgen.KindGraph {
		v, err = graphio.ReadGraph(bytes.NewReader(r.Body), f)
	} else {
		v, err = graphio.ReadHypergraph(bytes.NewReader(r.Body), f)
	}
	if err != nil {
		return nil, err
	}
	in[key] = v
	return v, nil
}

// solveResponse is the union of the /v1/reduce and /v1/maxis bodies.
type solveResponse struct {
	Instance struct {
		Cache string `json:"cache"`
	} `json:"instance"`
	Verified       bool               `json:"verified"`
	ElapsedMS      float64            `json:"elapsed_ms"`
	Result         json.RawMessage    `json:"result"`
	Size           int                `json:"size"`
	IndependentSet []int32            `json:"independent_set"`
	Trace          *obs.TraceSnapshot `json:"trace"`
}

// check decodes and verifies one response off the clock. Job results are
// fetched and verified separately (checkJobs), once the jobs are done.
func check(in instances, r *request, res result) outcome {
	if res.Err != nil {
		return outcome{Err: res.Err}
	}
	if res.Status < 200 || res.Status > 299 {
		return outcome{Err: fmt.Errorf("status %d: %s", res.Status, bytes.TrimSpace(res.Body))}
	}
	if r.Rec.Endpoint == loadgen.EndpointJobs {
		id, _ := submitted(res.Body)
		if id == "" {
			return outcome{Err: fmt.Errorf("job submit response without an id")}
		}
		return outcome{OK: true, JobID: id}
	}
	var resp solveResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		return outcome{Err: fmt.Errorf("decode: %w", err)}
	}
	o := outcome{Cache: resp.Instance.Cache, ElapsedMS: resp.ElapsedMS, Trace: resp.Trace}
	if !resp.Verified {
		o.Err = fmt.Errorf("server did not verify its output")
		return o
	}
	inst, err := in.get(r)
	if err != nil {
		o.Err = fmt.Errorf("generated instance: %w", err)
		return o
	}
	switch r.Rec.Endpoint {
	case loadgen.EndpointReduce:
		o.Result, o.Err = checkReduce(inst.(*hypergraph.Hypergraph), resp.Result)
	case loadgen.EndpointMaxIS:
		o.Set = resp.IndependentSet
		o.Err = verify.IndependentSet(inst.(*graph.Graph), resp.IndependentSet)
		if o.Err == nil && resp.Size != len(resp.IndependentSet) {
			o.Err = fmt.Errorf("size %d but %d vertices listed", resp.Size, len(resp.IndependentSet))
		}
	}
	o.OK = o.Err == nil
	return o
}

// checkReduce parses a result document and checks it is a conflict-free
// multicolouring of h (verify.ReductionResult runs
// verify.ConflictFreeMulti first) with consistent phase bookkeeping.
func checkReduce(h *hypergraph.Hypergraph, doc []byte) (*core.Result, error) {
	res, err := graphio.ReadResult(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return res, verify.ReductionResult(h, res)
}

// checkJobs fetches every job a phase submitted (each id once) and
// verifies its result; outs of job requests gain their Result or Err.
func checkJobs(ctx context.Context, base string, in instances, reqs []request, outs []outcome) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var ids []string
	for i := range outs {
		if outs[i].JobID != "" {
			ids = append(ids, outs[i].JobID)
		}
	}
	if err := awaitJobs(ctx, c, base, ids); err != nil {
		return err
	}
	done := make(map[string]outcome)
	for i := range outs {
		id := outs[i].JobID
		if id == "" {
			continue
		}
		o, ok := done[id]
		if !ok {
			o = checkJob(ctx, c, base, in, &reqs[i], id)
			done[id] = o
		}
		outs[i].Result, outs[i].Err, outs[i].OK = o.Result, o.Err, o.OK
	}
	return nil
}

func checkJob(ctx context.Context, c *http.Client, base string, in instances, r *request, id string) outcome {
	env, err := getJob(ctx, c, base, id)
	if err != nil {
		return outcome{Err: err}
	}
	if env.Job.State != "done" {
		return outcome{Err: fmt.Errorf("job %s ended %s: %s", id, env.Job.State, env.Job.Error)}
	}
	inst, err := in.get(r)
	if err != nil {
		return outcome{Err: err}
	}
	res, err := checkReduce(inst.(*hypergraph.Hypergraph), env.Result)
	return outcome{OK: err == nil, Err: err, Result: res, JobID: id}
}

// checkAll checks a phase's responses, jobs included.
func checkAll(ctx context.Context, base string, in instances, reqs []request, results []result) ([]outcome, error) {
	outs := make([]outcome, len(results))
	for i := range results {
		outs[i] = check(in, &reqs[i], results[i])
	}
	return outs, checkJobs(ctx, base, in, reqs, outs)
}

// jobMeta reads the wait and run times of every job carrying label.
func jobMeta(ctx context.Context, base, label string) (wait, run []float64, err error) {
	var list struct {
		Jobs []jobEnvelope `json:"jobs"`
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	c := newClient()
	defer c.CloseIdleConnections()
	if err := getJSON(ctx, c, base+"/v1/jobs?label="+url.QueryEscape(label), &list); err != nil {
		return nil, nil, err
	}
	for _, j := range list.Jobs {
		wait = append(wait, j.WaitMS)
		run = append(run, j.RunMS)
	}
	return wait, run, nil
}
