package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/loadgen"
	"pslocal/internal/maxis"
	"pslocal/internal/solver"
	"pslocal/internal/verify"
)

// serverSeed is cfserve's default oracle seed (its -seed flag), which
// requests naming no seed get.
const serverSeed = 1

// recorder keeps the replay's spans in memory until the run ends.
type recorder struct {
	spans []span
}

// open starts a span under parent and returns its id; shut ends it.
func (rc *recorder) open(parent int, name, rid string) int {
	rc.spans = append(rc.spans, span{ID: len(rc.spans) + 1, Parent: parent, Name: name, Request: rid, Start: time.Now()})
	return len(rc.spans)
}

func (rc *recorder) shut(id int) { rc.spans[id-1].End = time.Now() }

// call times fn as a span named name under parent.
func (rc *recorder) call(parent int, name, rid string, fn func() error) error {
	id := rc.open(parent, name, rid)
	err := fn()
	rc.shut(id)
	return err
}

// replayed is what the in-process replay of one request produced.
type replayed struct {
	Result *core.Result // reduce and jobs
	Set    []int32      // maxis
}

// replay reruns one request in-process, calling each layer's public
// functions in the order cfserve and core.Reduce call them, with a span
// around every call.
func (rc *recorder) replay(r *request, rid string) (replayed, error) {
	var out replayed
	f, err := graphio.ParseFormat(r.Rec.Format)
	if err != nil {
		return out, err
	}
	root := rc.open(0, "request", rid)
	defer rc.shut(root)
	kind := r.Rec.Inst.Kind
	rc.call(root, "solver.key", rid, func() error {
		_ = solver.InstanceKey(kind, f.String(), r.Body)
		return nil
	})
	parse := "graphio.parse." + f.String()
	seed := r.Rec.Params.Seed
	if seed == 0 {
		seed = serverSeed
	}
	if kind == loadgen.KindGraph {
		var g *graph.Graph
		if err := rc.call(root, parse, rid, func() (err error) {
			g, err = graphio.ReadGraph(bytes.NewReader(r.Body), f)
			return err
		}); err != nil {
			return out, err
		}
		name := r.Rec.Params.Oracle
		if name == "" {
			name = "greedy-mindeg" // cfserve's /v1/maxis default
		}
		if err := rc.call(root, "maxis.oracle", rid, func() error {
			o, err := maxis.Lookup(name, seed)
			if err != nil {
				return err
			}
			out.Set, err = maxis.OracleSolve(context.Background(), o, g)
			return err
		}); err != nil {
			return out, err
		}
		err := rc.call(root, "verify.maxis", rid, func() error { return verify.IndependentSet(g, out.Set) })
		return out, err
	}
	var h *hypergraph.Hypergraph
	if err := rc.call(root, parse, rid, func() (err error) {
		h, err = graphio.ReadHypergraph(bytes.NewReader(r.Body), f)
		return err
	}); err != nil {
		return out, err
	}
	res, err := rc.reduce(root, rid, h, r.Rec.Params.K, r.Rec.Params.Oracle, seed)
	if err != nil {
		return out, err
	}
	out.Result = res
	if err := rc.call(root, "verify.reduce", rid, func() error {
		if err := verify.ReductionResult(h, res); err != nil {
			return err
		}
		return verify.ConflictFreeMulti(h, res.Multicoloring)
	}); err != nil {
		return out, err
	}
	err = rc.call(root, "graphio.write_result", rid, func() error {
		var buf bytes.Buffer
		return graphio.WriteResult(&buf, res)
	})
	return out, err
}

// reduce is core.Reduce's phase loop, spelled out so each call into core,
// maxis, cfcolor and hypergraph gets its own span. An empty oracle (or
// "implicit") is cfserve's implicit first-fit mode; any other name is a
// registry oracle on the materialised G_k, built serially as a sync
// request with no workers parameter is. Oracle-mode phases also run a
// first-fit probe on the same index, as a root span of its own, so the
// implicit path's cost on this G_k shows without entering the request's
// self times.
func (rc *recorder) reduce(parent int, rid string, h *hypergraph.Hypergraph, k int, oracle string, seed int64) (*core.Result, error) {
	implicit := oracle == "" || oracle == "implicit"
	eng := engine.FromWorkersFlag(1)
	res := &core.Result{Multicoloring: cfcolor.NewMulticoloring(h.N()), K: k}
	cur := h
	for phase := 1; cur.M() > 0; phase++ {
		if phase > 4*h.M()+16 {
			return nil, fmt.Errorf("replay: phase budget exhausted with %d edges left", cur.M())
		}
		ph := rc.open(parent, "core.phase", rid)
		var (
			ix      *core.Index
			triples []core.Triple
			err     error
		)
		if err := rc.call(ph, "core.index", rid, func() (err error) {
			ix, err = core.NewIndex(cur, k)
			return err
		}); err != nil {
			return nil, err
		}
		stat := core.PhaseStat{Phase: phase, EdgesBefore: cur.M(), ConflictNodes: ix.NumNodes(), ConflictEdges: -1}
		if implicit {
			rc.call(ph, "core.firstfit", rid, func() error {
				triples = core.FirstFitTriples(ix)
				return nil
			})
		} else {
			var g *graph.Graph
			if err := rc.call(ph, "core.csr_build", rid, func() (err error) {
				g, err = core.BuildOpts(ix, eng)
				return err
			}); err != nil {
				return nil, err
			}
			var ids []int32
			if err := rc.call(ph, "maxis.oracle", rid, func() error {
				o, err := maxis.Lookup(oracle, seed)
				if err != nil {
					return err
				}
				ids, err = maxis.OracleSolve(context.Background(), o, g)
				return err
			}); err != nil {
				return nil, err
			}
			if !maxis.IsIndependentSet(g, ids) {
				return nil, core.ErrOracleNotIndependent
			}
			if triples, err = core.IDsToTriples(ix, ids); err != nil {
				return nil, err
			}
			stat.ConflictEdges = g.M()
			rc.call(0, "probe.core.firstfit", rid, func() error {
				_ = core.FirstFitTriples(ix)
				return nil
			})
		}
		stat.ISSize = len(triples)
		var (
			col     cfcolor.Coloring
			unhappy []int32
			next    *hypergraph.Hypergraph
		)
		if err := rc.call(ph, "core.recolor", rid, func() (err error) {
			if col, err = core.ISToColoring(ix, triples); err != nil {
				return err
			}
			unhappy = cfcolor.UnhappyEdges(cur, col)
			next, err = cur.KeepEdges(unhappy)
			return err
		}); err != nil {
			return nil, err
		}
		stat.HappyRemoved = cur.M() - len(unhappy)
		if stat.HappyRemoved == 0 {
			return nil, fmt.Errorf("replay: phase %d made no progress", phase)
		}
		offset := int32((phase - 1) * k)
		for v, c := range col {
			if c != cfcolor.Uncolored {
				res.Multicoloring.Add(int32(v), c+offset)
			}
		}
		res.Phases = append(res.Phases, stat)
		cur = next
		rc.shut(ph)
	}
	res.TotalColors = k * len(res.Phases)
	return res, nil
}

// equivalent reports how a replay differs from what the server returned
// for the same request: phases, total colours and IS sizes must match.
func equivalent(endpoint string, got replayed, o outcome) error {
	if endpoint == loadgen.EndpointMaxIS {
		a, b := slices.Clone(got.Set), slices.Clone(o.Set)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			return fmt.Errorf("independent set of size %d, server returned %d", len(a), len(b))
		}
		return nil
	}
	s := o.Result
	if s == nil || got.Result == nil {
		return fmt.Errorf("no result to compare")
	}
	if got.Result.TotalColors != s.TotalColors || len(got.Result.Phases) != len(s.Phases) {
		return fmt.Errorf("%d colours in %d phases, server returned %d in %d",
			got.Result.TotalColors, len(got.Result.Phases), s.TotalColors, len(s.Phases))
	}
	for i, p := range got.Result.Phases {
		if q := s.Phases[i]; p != q {
			return fmt.Errorf("phase %d: replay %+v, server %+v", i+1, p, q)
		}
	}
	return nil
}

// writeSpans writes the spans as JSON lines, times in µs from the first
// span's start.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"id": s.ID, "parent": s.Parent, "name": s.Name, "request": s.Request,
			"start_us": s.Start.Sub(t0).Microseconds(), "end_us": s.End.Sub(t0).Microseconds(),
		}); err != nil {
			fh.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
