package main

import (
	"fmt"
	"math"
	"sort"

	"pslocal/internal/loadgen"
)

// workload is one named traffic mix. Each class's SLOMillis is its
// latency limit for slo_attained_ratio, set near three times the class's
// p50 at the commit that defined the benchmark, so a real regression can
// fail it.
type workload struct {
	Name string
	// Nodes is the number of cfserve processes; more than one puts a
	// cfgate (affinity policy) in front and gives the nodes a shared
	// job store.
	Nodes int
	// Rate is the open-loop Poisson arrival rate, requests per second.
	Rate float64
	// HitRatio is loadgen's instance-reuse share.
	HitRatio float64
	// Warmup is how many requests (of an unrelated plan) warm the fleet
	// before timing.
	Warmup  int
	Classes []loadgen.Class
	// Large names the classes left out of small_p99_ms; with none, every
	// class is small and small_p99_ms equals latency_p99_ms.
	Large map[string]bool
}

// The classes of cfload's built-in mix, shared by mixed-repeat and
// heavy-tail.
var (
	reduceSmall = loadgen.Class{Name: "reduce-small", Weight: 3, Endpoint: loadgen.EndpointReduce,
		Kind: loadgen.KindHypergraph, Gen: "planted", N: 60, M: 24, K: 3, SizeLo: 3, SizeHi: 6,
		Formats: []string{"edgelist", "json"},
		Params:  loadgen.Params{K: 3, Oracle: "greedy-mindeg", Seed: 1}}
	maxisGnp = loadgen.Class{Name: "maxis-gnp", Weight: 2, Endpoint: loadgen.EndpointMaxIS,
		Kind: loadgen.KindGraph, Gen: "gnp", N: 80, P: 0.08,
		Formats: []string{"edgelist", "dimacs", "json"},
		Params:  loadgen.Params{Oracle: "greedy-mindeg", Seed: 1}}
	jobsPlanted = loadgen.Class{Name: "jobs-planted", Weight: 1, Endpoint: loadgen.EndpointJobs,
		Kind: loadgen.KindHypergraph, Gen: "planted", N: 60, M: 24, K: 3, SizeLo: 3, SizeHi: 6,
		Formats: []string{"json"},
		Params:  loadgen.Params{K: 3, Priority: "high"}}
)

// withSLO returns c with weight w and latency limit sloMS.
func withSLO(c loadgen.Class, w, sloMS float64) loadgen.Class {
	c.Weight = w
	c.SLOMillis = sloMS
	return c
}

var workloads = []workload{
	{
		// Every instance new, so parse, G_k build, oracle, verify and
		// encode do all the work and no cache helps.
		Name: "reduce-fresh",
		// About 40% of the node's closed-loop capacity.
		Nodes: 1, Rate: 42, Warmup: 60,
		Classes: []loadgen.Class{{Name: "reduce-planted", Weight: 1, Endpoint: loadgen.EndpointReduce,
			Kind: loadgen.KindHypergraph, Gen: "planted", N: 200, M: 80, K: 3, SizeLo: 4, SizeHi: 10,
			Formats: []string{"edgelist", "json"},
			Params:  loadgen.Params{K: 3, Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 40}},
	},
	{
		// cfload's three-class mix with 80% reuse through cfgate, so
		// per-request fixed costs, caching and affinity dominate.
		Name:  "mixed-repeat",
		Nodes: 2, Rate: 150, HitRatio: 0.8, Warmup: 200,
		Classes: []loadgen.Class{
			withSLO(reduceSmall, 3, 7),
			withSLO(maxisGnp, 2, 4),
			withSLO(jobsPlanted, 1, 4),
		},
	},
	{
		// 97% small requests behind 3% large reductions, so gate wait and
		// G_k size set the small-request tail and memory.
		Name:  "heavy-tail",
		Nodes: 1, Rate: 48, Warmup: 100,
		Classes: []loadgen.Class{
			withSLO(reduceSmall, 58.2, 6),
			withSLO(maxisGnp, 38.8, 4),
			{Name: "reduce-large", Weight: 3, Endpoint: loadgen.EndpointReduce,
				Kind: loadgen.KindHypergraph, Gen: "planted", N: 400, M: 160, K: 3, SizeLo: 10, SizeHi: 20,
				Formats: []string{"edgelist", "json"},
				Params:  loadgen.Params{K: 3, Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 450},
		},
		Large: map[string]bool{"reduce-large": true},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plan expands the workload into a deterministic schedule of about n
// requests. Each class is planned on its own, at its share of the rate
// and with exactly its share of n, and the streams are merged by time:
// the superposition is the same Poisson process loadgen.Plan draws for
// the whole mix, but the class counts no longer vary with the seed, so a
// seed cannot change how much of a run is large reductions.
func (w workload) plan(seed int64, n int) (*loadgen.Trace, error) {
	total := 0.0
	for _, c := range w.Classes {
		total += c.Weight
	}
	t := &loadgen.Trace{Seed: seed}
	for i, c := range w.Classes {
		share := c.Weight / total
		part, err := loadgen.Plan(loadgen.Spec{
			Seed: seed*1_000_003 + int64(i), Requests: max(int(math.Round(float64(n)*share)), 1),
			Rate: w.Rate * share, HitRatio: w.HitRatio, Classes: []loadgen.Class{c},
		})
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, part.Records...)
	}
	sort.SliceStable(t.Records, func(i, j int) bool { return t.Records[i].AtUS < t.Records[j].AtUS })
	for i := range t.Records {
		t.Records[i].Seq = i
	}
	return t, nil
}
