package core

// implicit_test.go pins the implicit greedy-mindeg path to the CSR path:
// implicit rows equal BuildOpts rows node by node, a greedy-mindeg
// reduction equals a per-phase BuildOpts + GreedyMinDegree reference
// (ConflictEdges included), the linear independence check agrees with the
// quadratic one, and every construction loop stops on cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pslocal/internal/cfcolor"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

// implicitFamilies returns one instance per generator family, plus
// hand-built ones with singleton and duplicate hyperedges.
func implicitFamilies(t *testing.T, seed int64) map[string]*hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*hypergraph.Hypergraph)
	add := func(name string, h *hypergraph.Hypergraph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = h
	}
	h, _, err := hypergraph.PlantedCF(40, 16, 3, 2, 6, rng)
	add("planted", h, err)
	h, err = hypergraph.Uniform(25, 14, 4, rng)
	add("uniform", h, err)
	h, err = hypergraph.Interval(30, 12, 1, 7, rng)
	add("interval", h, err)
	h, err = hypergraph.Star(20, 9, 4, rng)
	add("star", h, err)
	add("singletons+duplicates", hypergraph.MustNew(6, [][]int32{
		{0}, {0}, {0, 1, 2}, {0, 1, 2}, {2}, {2, 3}, {3, 4, 5}, {5}, {1, 4},
	}), nil)
	return out
}

func TestImplicitGraphMatchesBuildOpts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, h := range implicitFamilies(t, seed) {
			for k := 1; k <= 3; k++ {
				t.Run(fmt.Sprintf("%s/seed=%d/k=%d", name, seed, k), func(t *testing.T) {
					ix := mustIndex(t, h, k)
					want, err := BuildOpts(ix, engine.Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					got, err := NewImplicitGraph(ix, engine.Options{})
					if err != nil {
						t.Fatal(err)
					}
					requireSameGraph(t, got, want)
					for v := int32(0); int(v) < want.N(); v++ {
						if got.Degree(v) != want.Degree(v) {
							t.Fatalf("node %d: degree %d, want %d", v, got.Degree(v), want.Degree(v))
						}
					}
				})
			}
		}
	}
}

// randomRowInstance draws a hypergraph that stresses the ordered row
// walk: a star centre most edges share (high H-degree) in half of the
// instances, singleton edges, and exact duplicates of earlier edges.
func randomRowInstance(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 3 + rng.Intn(14)
	m := 1 + rng.Intn(14)
	star := rng.Intn(2) == 0
	edges := make([][]int32, 0, m)
	for len(edges) < m {
		switch r := rng.Intn(5); {
		case r == 0:
			edges = append(edges, []int32{int32(rng.Intn(n))})
		case r == 1 && len(edges) > 0:
			edges = append(edges, edges[rng.Intn(len(edges))])
		default:
			var e []int32
			for _, v := range rng.Perm(n)[:1+rng.Intn(min(n, 6))] {
				e = append(e, int32(v))
			}
			if star && rng.Intn(4) != 0 {
				e = append(e, 0) // New drops the repeat if 0 is already in e
			}
			edges = append(edges, e)
		}
	}
	return hypergraph.MustNew(n, edges)
}

// TestQuickImplicitRowsOrdered checks every implicit row over random
// hypergraphs and k = 1..4: strictly ascending, as long as its Degree,
// equal to the BuildOpts row, and Σ row lengths = 2·M. k = 1 leaves
// E_vertex empty, so the walk's other-colour step emits nothing.
func TestQuickImplicitRowsOrdered(t *testing.T) {
	seenK := make(map[int]int)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomRowInstance(rng)
		k := 1 + rng.Intn(4)
		seenK[k]++
		ix, err := NewIndex(h, k)
		if err != nil {
			return false
		}
		want, err := BuildOpts(ix, engine.Options{Workers: 1})
		if err != nil {
			return false
		}
		got, err := NewImplicitGraph(ix, engine.Options{})
		if err != nil || got.M() != want.M() {
			return false
		}
		sum := 0
		var gr, wr []int32
		for v := int32(0); int(v) < got.N(); v++ {
			gr = got.AppendNeighbors(gr[:0], v)
			wr = want.AppendNeighbors(wr[:0], v)
			if !slices.Equal(gr, wr) || got.Degree(v) != len(gr) {
				return false
			}
			for i := 1; i < len(gr); i++ {
				if gr[i-1] >= gr[i] {
					return false
				}
			}
			sum += len(gr)
		}
		return sum == 2*got.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		if seenK[k] < 40 {
			t.Errorf("k=%d drawn %d times: the generator no longer covers it", k, seenK[k])
		}
	}
}

// TestImplicitAppendNeighborsAllocatesNothing pins the row walk at zero
// allocations once dst and the row scratch have room: rows are written
// straight into dst.
func TestImplicitAppendNeighborsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, _, err := hypergraph.PlantedCF(200, 80, 3, 4, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewImplicitGraph(mustIndex(t, h, 3), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for v := int32(0); int(v) < a.N(); v++ {
		maxDeg = max(maxDeg, a.Degree(v))
	}
	dst := make([]int32, 0, maxDeg)
	allRows := func() {
		for v := int32(0); int(v) < a.N(); v++ {
			dst = a.AppendNeighbors(dst[:0], v)
		}
	}
	allRows() // grow the row scratch to the largest edge and incidence list
	if allocs := testing.AllocsPerRun(5, allRows); allocs != 0 {
		t.Errorf("AppendNeighbors over all %d rows: %v allocs, want 0", a.N(), allocs)
	}
}

// csrReference is Reduce's phase loop spelled out on the materialised
// G_k: BuildOpts, then solve, then the Lemma 2.1 colouring.
func csrReference(t *testing.T, h *hypergraph.Hypergraph, k int, solve func(*graph.Graph) []int32) *Result {
	t.Helper()
	res := &Result{Multicoloring: cfcolor.NewMulticoloring(h.N()), K: k, Weighted: h.Weighted()}
	colored := make([]bool, h.N())
	cur := h
	for phase := 1; cur.M() > 0; phase++ {
		ix := mustIndex(t, cur, k)
		g, err := BuildOpts(ix, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		triples, err := IDsToTriples(ix, solve(g))
		if err != nil {
			t.Fatal(err)
		}
		stat := PhaseStat{Phase: phase, EdgesBefore: cur.M(), ConflictNodes: g.N(), ConflictEdges: g.M(), ISSize: len(triples)}
		if h.Weighted() {
			for _, tr := range triples {
				stat.ISWeight += cur.Weight(tr.Vertex)
			}
		}
		f, err := ISToColoring(ix, triples)
		if err != nil {
			t.Fatal(err)
		}
		unhappy := cfcolor.UnhappyEdges(cur, f)
		stat.HappyRemoved = cur.M() - len(unhappy)
		for v, c := range f {
			if c != cfcolor.Uncolored {
				res.Multicoloring.Add(int32(v), c+int32((phase-1)*k))
				colored[v] = true
			}
		}
		res.Phases = append(res.Phases, stat)
		if cur, err = cur.KeepEdges(unhappy); err != nil {
			t.Fatal(err)
		}
	}
	res.TotalColors = k * len(res.Phases)
	if h.Weighted() {
		for v, c := range colored {
			if c {
				res.TotalWeight += h.Weight(int32(v))
			}
		}
	}
	return res
}

func TestReduceGreedyMinDegMatchesCSRReference(t *testing.T) {
	oracle, err := maxis.Lookup("greedy-mindeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for name, h := range implicitFamilies(t, seed) {
			for k := 1; k <= 3; k++ {
				got, err := Reduce(context.Background(), h, Options{K: k, Mode: ModeOracle, Oracle: oracle})
				if err != nil {
					t.Fatalf("%s/seed=%d/k=%d: %v", name, seed, k, err)
				}
				want := csrReference(t, h, k, maxis.GreedyMinDegree)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/seed=%d/k=%d: implicit reduce differs from the CSR reference\n got phases %+v\nwant phases %+v",
						name, seed, k, got.Phases, want.Phases)
				}
			}
		}
	}
}

// TestReduceGreedyMinDegSkipsCSR pins the point of the implicit path: a
// whole greedy-mindeg reduction allocates a small fraction of what
// materialising its first G_k alone does.
func TestReduceGreedyMinDegSkipsCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, _, err := hypergraph.PlantedCF(200, 80, 3, 8, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustIndex(t, h, 3)
	allocated := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build := allocated(func() error { _, err := Build(ix); return err })
	reduce := allocated(func() error {
		_, err := Reduce(nil, h, Options{K: 3, Mode: ModeOracle, Oracle: maxis.MinDegreeOracle{}})
		return err
	})
	t.Logf("reduce %d B, build %d B", reduce, build)
	if reduce*10 > build {
		t.Errorf("greedy-mindeg reduce allocated %d bytes, over a tenth of the %d a CSR build takes", reduce, build)
	}
}

func TestReduceWeightedGreedyMinDegUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		h := weightedPlanted(t, rng, 18, 9, 2)
		got, err := Reduce(nil, h, Options{K: 2, Mode: ModeOracle, Oracle: maxis.MinDegreeOracle{}})
		if err != nil {
			t.Fatal(err)
		}
		if want := csrReference(t, h, 2, maxis.GreedyWeighted); !reflect.DeepEqual(got, want) {
			t.Errorf("instance %d: weighted reduce differs from CSR + GreedyWeighted\n got %+v\nwant %+v", i, got.Phases, want.Phases)
		}
	}
}

// dependentAdjacencyOracle returns the first two nodes of any graph, which
// share the first edge's block.
type dependentAdjacencyOracle struct{ emptyOracle }

func (dependentAdjacencyOracle) SolveAdjacency(context.Context, maxis.Adjacency) ([]int32, error) {
	return []int32{0, 1}, nil
}

func TestReduceImplicitRejectsDependentSet(t *testing.T) {
	h := hypergraph.MustNew(3, [][]int32{{0, 1}, {1, 2}})
	_, err := Reduce(nil, h, Options{K: 2, Mode: ModeOracle, Oracle: dependentAdjacencyOracle{}})
	if !errors.Is(err, ErrOracleNotIndependent) {
		t.Errorf("error = %v, want ErrOracleNotIndependent", err)
	}
}

func TestIndependentTriplesRejections(t *testing.T) {
	// e0 = {0,1}, e1 = {1,2}, e2 = {2,3}.
	h := hypergraph.MustNew(4, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	ix := mustIndex(t, h, 2)
	for _, tc := range []struct {
		name string
		ts   []Triple
		want bool
	}{
		{"empty", nil, true},
		{"independent", []Triple{{0, 0, 1}, {2, 3, 1}, {1, 2, 2}}, true},
		{"E_edge", []Triple{{0, 0, 1}, {0, 1, 2}}, false},
		{"repeated triple", []Triple{{1, 2, 1}, {1, 2, 1}}, false},
		{"E_vertex", []Triple{{0, 1, 1}, {1, 1, 2}}, false},
		// (0,0,1), (1,1,1): vertex 1 lies in e0, the first triple's edge;
		// e1 does not hold vertex 0.
		{"E_color via the first container", []Triple{{0, 0, 1}, {1, 1, 1}}, false},
		// (0,1,1), (1,2,1): vertex 1 lies in e1, the second triple's edge;
		// e0 does not hold vertex 2.
		{"E_color via the second container", []Triple{{0, 1, 1}, {1, 2, 1}}, false},
	} {
		got, err := IndependentTriples(ix, tc.ts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		quad, _ := IsIndependentTriples(ix, tc.ts)
		if got != tc.want || quad != tc.want {
			t.Errorf("%s: linear %v, quadratic %v, want %v", tc.name, got, quad, tc.want)
		}
	}
	for _, bad := range []Triple{{3, 0, 1}, {0, 2, 1}, {0, 0, 3}, {0, 0, 0}} {
		if _, err := IndependentTriples(ix, []Triple{bad}); !errors.Is(err, ErrBadTriple) {
			t.Errorf("triple %v: error = %v, want ErrBadTriple", bad, err)
		}
	}
}

func TestQuickIndependentTriplesAgreesWithQuadratic(t *testing.T) {
	seen := make(map[bool]int) // verdicts, so neither side goes untested
	f := func(seed int64) bool {
		h, k, rng, err := randomInstance(seed)
		if err != nil {
			return false
		}
		ix, err := NewIndex(h, k)
		if err != nil {
			return false
		}
		// A random subset of a first-fit set is independent; a few random
		// extra triples usually make it dependent.
		var ts []Triple
		for _, tr := range FirstFitTriples(ix) {
			if rng.Intn(2) == 0 {
				ts = append(ts, tr)
			}
		}
		for extra := rng.Intn(3); extra > 0; extra-- {
			tr, err := ix.TripleOf(int32(rng.Intn(ix.NumNodes())))
			if err != nil {
				return false
			}
			ts = append(ts, tr)
		}
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		lin, err1 := IndependentTriples(ix, ts)
		quad, err2 := IsIndependentTriples(ix, ts)
		seen[quad]++
		return err1 == nil && err2 == nil && lin == quad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if seen[true] < 30 || seen[false] < 30 {
		t.Errorf("verdicts %v: the generator no longer covers both outcomes", seen)
	}
}

// pollCounter is a context that cancels itself on its n-th Err poll, so
// a test can land a cancellation inside a specific loop.
type pollCounter struct {
	context.Context
	cancel context.CancelFunc
	left   int
}

func cancelOnPoll(n int) *pollCounter {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCounter{Context: ctx, cancel: cancel, left: n}
}

func (c *pollCounter) Err() error {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestConstructionStopsMidLoop cancels on the second poll, which every
// construction loop makes after its first 64 hyperedges (vertices): each
// loop must return the cancellation having done only that first block.
func TestConstructionStopsMidLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h, _, err := hypergraph.PlantedCF(300, 300, 2, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustIndex(t, h, 2)
	full, err := Build(ix)
	if err != nil {
		t.Fatal(err)
	}
	for name, emit := range map[string]func(*graph.Builder, engine.Options) error{
		"edge shard":   func(b *graph.Builder, o engine.Options) error { return emitEdgeShard(ix, b, 0, h.M(), o) },
		"vertex shard": func(b *graph.Builder, o engine.Options) error { return emitVertexShard(ix, b, 0, h.N(), o) },
	} {
		ctx := cancelOnPoll(2)
		b := graph.NewBuilder(ix.NumNodes())
		if err := emit(b, engine.Options{Workers: 1, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error = %v, want context.Canceled", name, err)
		}
		part, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if part.M() == 0 || part.M() >= full.M()/2 {
			t.Errorf("%s: emitted %d of %d edges before stopping, want only the first block", name, part.M(), full.M())
		}
		ctx.cancel()
	}
	ctx := cancelOnPoll(2)
	defer ctx.cancel()
	if _, err := NewImplicitGraph(ix, engine.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) || ctx.left != 0 {
		t.Errorf("degree pass: error = %v after %d extra polls, want context.Canceled at the second poll", err, -ctx.left)
	}
}
