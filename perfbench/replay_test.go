package main

import (
	"context"
	"testing"

	"pslocal/internal/hypergraph"
	"pslocal/internal/loadgen"
	"pslocal/internal/solver"
)

// The spelled-out phase loop must agree with the solver cfserve runs, in
// both the oracle and the implicit mode, or the per-layer figures would
// describe a different program.
func TestReplayMatchesSolver(t *testing.T) {
	for _, oracle := range []string{"greedy-mindeg", ""} {
		for seed := int64(1); seed <= 3; seed++ {
			for i, format := range []string{"edgelist", "json"} {
				// Uniform instances take several phases; planted ones one.
				gen := []string{"planted", "uniform"}[i]
				rec := loadgen.Record{Endpoint: loadgen.EndpointReduce, Format: format,
					Inst: loadgen.InstSpec{Kind: loadgen.KindHypergraph, Gen: gen, N: 60, M: 40,
						K: 3, SizeLo: 3, SizeHi: 6, Seed: seed},
					Params: loadgen.Params{K: 3, Oracle: oracle}}
				body, err := rec.Inst.Build(format)
				if err != nil {
					t.Fatal(err)
				}
				r := request{Rec: rec, Body: body}
				rc := &recorder{}
				got, err := rc.replay(&r, "test-request")
				if err != nil {
					t.Fatal(err)
				}
				h, err := instances{}.get(&r)
				if err != nil {
					t.Fatal(err)
				}
				opts := []solver.Option{solver.WithK(3), solver.WithSeed(serverSeed), solver.WithWorkers(1)}
				if oracle != "" {
					opts = append(opts, solver.WithOracle(oracle))
				}
				want, err := solver.New(opts...).Solve(context.Background(), h.(*hypergraph.Hypergraph))
				if err != nil {
					t.Fatal(err)
				}
				if err := equivalent(loadgen.EndpointReduce, got, outcome{Result: want}); err != nil {
					t.Errorf("oracle %q seed %d %s %s: %v", oracle, seed, gen, format, err)
				}
				checkSpanNames(t, rc.spans, oracle == "")
			}
		}
	}
}

// A server result that differs from the replay is caught.
func TestEquivalentRejectsMismatch(t *testing.T) {
	rec := loadgen.Record{Endpoint: loadgen.EndpointReduce, Format: "json",
		Inst: loadgen.InstSpec{Kind: loadgen.KindHypergraph, Gen: "planted", N: 60, M: 24,
			K: 3, SizeLo: 3, SizeHi: 6, Seed: 1},
		Params: loadgen.Params{K: 3, Oracle: "greedy-mindeg"}}
	body, err := rec.Inst.Build("json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&recorder{}).replay(&request{Rec: rec, Body: body}, "test-request")
	if err != nil {
		t.Fatal(err)
	}
	server := *got.Result
	server.Phases = append(server.Phases[:0:0], server.Phases...)
	server.Phases[0].ISSize++
	if equivalent(loadgen.EndpointReduce, got, outcome{Result: &server}) == nil {
		t.Error("a different phase-1 IS size passed")
	}
	if equivalent(loadgen.EndpointMaxIS, replayed{Set: []int32{1, 2}}, outcome{Set: []int32{2, 1}}) != nil {
		t.Error("the same set in another order failed")
	}
	if equivalent(loadgen.EndpointMaxIS, replayed{Set: []int32{1, 2}}, outcome{Set: []int32{1, 3}}) == nil {
		t.Error("a different set passed")
	}
}

// checkSpanNames asserts the replay timed the calls its mode makes.
func checkSpanNames(t *testing.T, spans []span, implicit bool) {
	t.Helper()
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
		if s.End.Before(s.Start) {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := []string{"request", "solver.key", "core.phase", "core.index", "core.recolor", "verify.reduce", "graphio.write_result"}
	if implicit {
		want = append(want, "core.firstfit")
	} else {
		want = append(want, "core.csr_build", "maxis.oracle", "probe.core.firstfit")
	}
	for _, n := range want {
		if !seen[n] {
			t.Errorf("no %s span", n)
		}
	}
}
