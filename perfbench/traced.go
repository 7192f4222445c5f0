package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"pslocal/internal/loadgen"
	"pslocal/internal/obs"
)

// traced is the per-layer run: the workload untraced, then again with
// the same seed on a fresh fleet with ?trace=1, side probes for layers
// the workload's own traffic skips, and an in-process replay of every
// instance whose results must equal the server's.
func (b *bench) traced(ctx context.Context) error {
	// Untraced pass: the baseline for obs.trace_overhead_pct.
	f, reqs, err := b.setup(ctx, b.w.Nodes, b.label("base"), false)
	if err != nil {
		return err
	}
	base := openLoop(ctx, f.entry, reqs, b.conns, "base", b.o.seed)
	in := instances{}
	baseOuts, err := checkAll(ctx, f.entry, in, reqs, base)
	f.stop()
	if err != nil {
		return err
	}

	// Traced pass.
	f, treqs, err := b.setup(ctx, b.w.Nodes, b.label("traced"), true)
	if err != nil {
		return err
	}
	defer f.stop()
	res := openLoop(ctx, f.entry, treqs, b.conns, "traced", b.o.seed)
	outs, err := checkAll(ctx, f.entry, in, treqs, res)
	if err != nil {
		return err
	}
	waits, runs, err := b.jobLayer(ctx, f, reqs)
	if err != nil {
		return err
	}
	hop, err := b.hopProbe(ctx, f, in, reqs)
	if err != nil {
		return err
	}
	f.stop()

	failed := b.phaseLine("base", baseOuts, "")
	failed += b.phaseLine("traced", outs, "")
	b.rep.Attempted = len(baseOuts) + len(outs)
	b.rep.Failed = failed
	if failed > 0 {
		b.rep.Correct = false
		return fmt.Errorf("%d requests failed", failed)
	}

	// Generator and HTTP layers.
	lag := make([]float64, len(res))
	var overhead, lat, baseLat []float64
	for i, r := range res {
		lag[i] = ms(r.Lag)
		lat = append(lat, ms(r.Latency))
		if treqs[i].Rec.Endpoint != loadgen.EndpointJobs {
			overhead = append(overhead, ms(r.Wire)-outs[i].ElapsedMS)
		}
	}
	for _, r := range base {
		baseLat = append(baseLat, ms(r.Latency))
	}
	lagQ, err := b.tail(lag, 0.99, "client.lag_p99_ms")
	if err != nil {
		return err
	}
	b.put("client.lag_p99_ms", lagQ.Value, "ms", fmt.Sprintf("n=%d, bound %.1f", lagQ.N, lagBoundMS))
	b.put("client.overhead_p50_ms", median(overhead), "ms", "latency minus server elapsed_ms")
	b.put("cluster.hop_p50_ms", hop, "ms", "gateway minus direct overhead")
	b.clusterMetrics(treqs, res, outs)
	if err := b.serverSpans(treqs, outs); err != nil {
		return err
	}
	b.put("jobs.queue_wait_p50_ms", median(waits), "ms", fmt.Sprintf("%d jobs", len(waits)))
	b.put("jobs.run_p50_ms", median(runs), "ms", fmt.Sprintf("%d jobs", len(runs)))
	bp50, tp50 := median(baseLat), median(lat)
	b.put("obs.trace_overhead_pct", 100*(tp50-bp50)/bp50, "%",
		fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms", tp50, bp50))

	// In-process replay of every distinct request.
	rc := &recorder{}
	first := make(map[string]int)
	var gkEdges int
	var phases []float64
	for i := range treqs {
		key := fmt.Sprintf("%s?%+v/%s", treqs[i].Rec.Endpoint, treqs[i].Rec.Params, bodyKey(treqs[i].Rec))
		j, seen := first[key]
		if !seen {
			first[key] = i
			j = i
		}
		var got replayed
		if !seen {
			if got, err = rc.replay(&treqs[i], requestID("traced", b.o.seed, i)); err != nil {
				return fmt.Errorf("replay of request %d: %w", i, err)
			}
			if got.Result != nil {
				phases = append(phases, float64(len(got.Result.Phases)))
				for _, p := range got.Result.Phases {
					gkEdges = max(gkEdges, p.ConflictEdges)
				}
			}
		} else {
			got = replayed{Result: outs[j].Result, Set: outs[j].Set}
		}
		if err := equivalent(treqs[i].Rec.Endpoint, got, outs[i]); err != nil {
			return fmt.Errorf("replay differs from the server: request %d (%s): %v", i, treqs[i].Rec.Class, err)
		}
	}
	fmt.Fprintf(b.out, "replay: %d distinct requests match the server's phases, colours and IS sizes\n", len(first))
	b.layerMetrics(rc.spans)
	b.put("core.gk_edges", float64(gkEdges), "count", "largest G_k built")
	b.put("core.phases", mean(phases), "count", fmt.Sprintf("mean over %d reductions", len(phases)))
	return writeSpans(filepath.Join(b.o.work, "spans", fmt.Sprintf("%s-%d.jsonl", b.w.Name, b.o.seed)), rc.spans)
}

// clusterMetrics reports the affinity hit ratio, backend skew and the
// solver cache hit ratio of the traced pass.
func (b *bench) clusterMetrics(reqs []request, res []result, outs []outcome) {
	var reused, reusedHits, sync, hits int
	perBackend := map[string]int{}
	for i, o := range outs {
		if reqs[i].Rec.Endpoint == loadgen.EndpointJobs {
			continue
		}
		sync++
		if o.Cache == "hit" {
			hits++
		}
		if reqs[i].Reused {
			reused++
			if o.Cache == "hit" {
				reusedHits++
			}
		}
		perBackend[res[i].Backend]++
	}
	affinity := 0.0
	if reused > 0 {
		affinity = float64(reusedHits) / float64(reused)
	}
	b.put("cluster.affinity_hit_ratio", affinity, "ratio", fmt.Sprintf("%d of %d reused", reusedHits, reused))
	most, total := 0, 0
	for _, n := range perBackend {
		most = max(most, n)
		total += n
	}
	skew := float64(most) / (float64(total) / float64(b.w.Nodes))
	b.put("cluster.backend_skew", skew, "ratio", fmt.Sprintf("max over mean of %d backends", b.w.Nodes))
	b.put("solver.cache_hit_ratio", float64(hits)/float64(max(sync, 1)), "ratio", fmt.Sprintf("%d of %d", hits, sync))
}

// serverSpans reads gate_wait from the span trees the server embedded.
func (b *bench) serverSpans(reqs []request, outs []outcome) error {
	var waits []float64
	for _, o := range outs {
		if o.Trace == nil {
			continue
		}
		walk(o.Trace.Spans, func(s obs.SpanSnapshot) {
			if s.Name == "gate_wait" {
				waits = append(waits, float64(s.DurUS)/1000)
			}
		})
	}
	q, err := b.tail(waits, 0.99, "engine.gate_wait_p99_ms")
	if err != nil {
		return err
	}
	b.put("engine.gate_wait_p99_ms", q.Value, "ms", fmt.Sprintf("n=%d", q.N))
	return nil
}

func walk(spans []obs.SpanSnapshot, fn func(obs.SpanSnapshot)) {
	for _, s := range spans {
		fn(s)
		walk(s.Children, fn)
	}
}

// jobLayer returns the wait and run times of jobs in the traced pass.
// A workload without a jobs class submits its first jobsProbe reduce
// requests as jobs, one at a time, so the job layer is measured on this
// workload's instances too.
func (b *bench) jobLayer(ctx context.Context, f *fleet, reqs []request) (wait, run []float64, err error) {
	label := b.label("traced")
	hasJobs := false
	for _, c := range b.w.Classes {
		hasJobs = hasJobs || c.Endpoint == loadgen.EndpointJobs
	}
	if !hasJobs {
		label = b.label("jobprobe")
		c := newClient()
		defer c.CloseIdleConnections()
		n := 0
		for i := range reqs {
			if n == jobsProbe {
				break
			}
			if reqs[i].Rec.Endpoint != loadgen.EndpointReduce {
				continue
			}
			n++
			rec := reqs[i].Rec
			rec.Endpoint = loadgen.EndpointJobs
			probe := reqs[i]
			probe.Query = query(rec, label, false)
			r := send(ctx, c, f.entry, &probe, requestID("jobprobe", b.o.seed, i))
			id, state := submitted(r.Body)
			if r.Err != nil || id == "" {
				return nil, nil, fmt.Errorf("job probe submit: status %d %v", r.Status, r.Err)
			}
			if !terminal(state) {
				if err := awaitJobs(ctx, c, f.entry, []string{id}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return jobMeta(ctx, f.entry, label)
}

// hopProbe measures what the gateway hop adds: the first hopProbe
// synchronous requests go once through cfgate and once straight to the
// first node, alternating which goes first, over one connection each.
// The result is the median overhead (client time minus the server's
// elapsed_ms) through the gateway minus the median overhead direct. A
// single-node workload gets a one-backend cfgate for the probe.
func (b *bench) hopProbe(ctx context.Context, f *fleet, in instances, reqs []request) (float64, error) {
	if f.gate == nil {
		if err := f.addGate(ctx, fleetConfig{bin: b.o.bin, dir: b.dir}); err != nil {
			return 0, err
		}
	}
	gc, dc := newClient(), newClient()
	defer gc.CloseIdleConnections()
	defer dc.CloseIdleConnections()
	var viaGate, direct []float64
	n := 0
	for i := range reqs {
		if n == hopProbe {
			break
		}
		if reqs[i].Rec.Endpoint == loadgen.EndpointJobs {
			continue
		}
		n++
		paths := []struct {
			c    *http.Client
			base string
			into *[]float64
		}{{gc, f.gate.url, &viaGate}, {dc, f.nodes[0].url, &direct}}
		if n%2 == 0 {
			paths[0], paths[1] = paths[1], paths[0]
		}
		for _, p := range paths {
			r := send(ctx, p.c, p.base, &reqs[i], requestID("hop", b.o.seed, i))
			o := check(in, &reqs[i], r)
			if !o.OK {
				return 0, fmt.Errorf("hop probe request %d: %v", i, o.Err)
			}
			*p.into = append(*p.into, ms(r.Wire)-o.ElapsedMS)
		}
	}
	return median(viaGate) - median(direct), nil
}

// layerMetrics turns the replay's spans into per-layer self times: for
// each span name, the median over requests of the request's summed self
// time in spans of that name.
func (b *bench) layerMetrics(spans []span) {
	self := selfTimes(spans)
	type key struct{ rid, name string }
	sums := map[key]time.Duration{}
	for _, s := range spans {
		sums[key{s.Request, s.Name}] += self[s.ID]
	}
	by := map[string][]float64{}
	for k, d := range sums {
		by[k.name] = append(by[k.name], ms(d))
	}
	layer := func(metric, span, unit, note string) {
		xs := by[span]
		v := median(xs)
		if unit == "us" {
			v *= 1000
		}
		b.put(metric, v, unit, fmt.Sprintf("median of %d requests%s", len(xs), note))
	}
	layer("solver.key_us", "solver.key", "us", "")
	layer("graphio.parse_ms.edgelist", "graphio.parse.edgelist", "ms", "")
	layer("graphio.parse_ms.json", "graphio.parse.json", "ms", "")
	if len(by["graphio.parse.dimacs"]) > 0 {
		// Not a reported metric: reduce-fresh sends no graphs.
		layer("graphio.parse_ms.dimacs", "graphio.parse.dimacs", "ms", "")
	}
	layer("graphio.write_result_ms", "graphio.write_result", "ms", "")
	layer("core.index_ms", "core.index", "ms", "")
	layer("core.csr_build_ms", "core.csr_build", "ms", "")
	if len(by["core.firstfit"]) > 0 {
		layer("core.firstfit_ms", "core.firstfit", "ms", ", implicit-mode requests")
	} else {
		layer("core.firstfit_ms", "probe.core.firstfit", "ms", ", probe on oracle-mode phases")
	}
	layer("core.recolor_ms", "core.recolor", "ms", "")
	layer("maxis.oracle_ms", "maxis.oracle", "ms", "")
	layer("verify.reduce_ms", "verify.reduce", "ms", "")
}
