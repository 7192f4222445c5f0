package maxis

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pslocal/internal/graph"
)

func TestGreedyMinDegreeKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int // exact greedy outcome on these structured inputs
	}{
		{"edgeless", graph.Empty(5), 5},
		{"star picks leaves", graph.Star(9), 8},
		{"complete", graph.Complete(7), 1},
		{"path6", graph.Path(6), 3},
		{"two cliques", graph.Union(graph.Complete(3), graph.Complete(5)), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := GreedyMinDegree(tt.g)
			if len(got) != tt.want {
				t.Errorf("size = %d, want %d (set %v)", len(got), tt.want, got)
			}
			if !IsMaximalIndependentSet(tt.g, got) {
				t.Errorf("result %v not a maximal independent set", got)
			}
		})
	}
}

func TestGreedyMinDegreeMeetsCaroWei(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GnP(2+rng.Intn(60), rng.Float64()*0.5, rng)
		set := GreedyMinDegree(g)
		if !IsMaximalIndependentSet(g, set) {
			return false
		}
		return float64(len(set)) >= math.Floor(CaroWei(g))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyOrderAdversarial(t *testing.T) {
	// Processing the star centre first yields the worst possible MIS.
	g := graph.Star(6)
	order := []int32{0, 1, 2, 3, 4, 5}
	set, err := GreedyOrder(g, order)
	if err != nil {
		t.Fatalf("GreedyOrder error: %v", err)
	}
	if len(set) != 1 || set[0] != 0 {
		t.Errorf("centre-first greedy = %v, want [0]", set)
	}
	// Processing leaves first yields the optimum.
	order = []int32{1, 2, 3, 4, 5, 0}
	set, err = GreedyOrder(g, order)
	if err != nil {
		t.Fatalf("GreedyOrder error: %v", err)
	}
	if len(set) != 5 {
		t.Errorf("leaves-first greedy size = %d, want 5", len(set))
	}
}

func TestGreedyOrderErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := GreedyOrder(g, []int32{0, 1}); err == nil {
		t.Error("short order should error")
	}
	if _, err := GreedyOrder(g, []int32{0, 1, 1}); err == nil {
		t.Error("repeated node should error")
	}
	if _, err := GreedyOrder(g, []int32{0, 1, 5}); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestGreedyRandomOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := graph.GnP(1+rng.Intn(50), rng.Float64()*0.4, rng)
		set := GreedyRandomOrder(g, rng)
		if !IsMaximalIndependentSet(g, set) {
			t.Fatalf("trial %d: %v not a maximal independent set", trial, set)
		}
	}
}

func TestOraclesReturnValidIndependentSets(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*graph.Graph{
		graph.Empty(4),
		graph.Path(9),
		graph.Cycle(8),
		graph.Star(7),
		graph.GnP(40, 0.15, rng),
		graph.Grid(4, 5),
	}
	oracles := []Oracle{
		MinDegreeOracle{},
		&RandomOrderOracle{Seed: 1},
		FirstFitOracle{},
		ExactOracle{},
		CliqueRemovalOracle{},
	}
	seen := map[string]bool{}
	for _, o := range oracles {
		if seen[o.Name()] {
			t.Errorf("duplicate oracle name %q", o.Name())
		}
		seen[o.Name()] = true
		for gi, g := range graphs {
			set, err := o.Solve(g)
			if err != nil {
				t.Errorf("%s on graph %d: %v", o.Name(), gi, err)
				continue
			}
			if !IsIndependentSet(g, set) {
				t.Errorf("%s on graph %d: result %v not independent", o.Name(), gi, set)
			}
			if g.N() > 0 && len(set) == 0 {
				t.Errorf("%s on graph %d: empty set on non-empty graph", o.Name(), gi)
			}
		}
	}
}

func TestIsIndependentSet(t *testing.T) {
	g := graph.Path(4)
	tests := []struct {
		name  string
		nodes []int32
		want  bool
	}{
		{"empty", nil, true},
		{"valid", []int32{0, 2}, true},
		{"adjacent", []int32{0, 1}, false},
		{"duplicate", []int32{0, 0}, false},
		{"out of range", []int32{0, 9}, false},
		{"negative", []int32{-1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsIndependentSet(g, tt.nodes); got != tt.want {
				t.Errorf("IsIndependentSet(%v) = %v, want %v", tt.nodes, got, tt.want)
			}
		})
	}
}

func TestIsMaximalIndependentSet(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4
	tests := []struct {
		name  string
		nodes []int32
		want  bool
	}{
		{"maximum", []int32{0, 2, 4}, true},
		{"maximal not maximum", []int32{1, 3}, true},
		{"maximal pair", []int32{0, 3}, true},
		{"independent not maximal", []int32{2}, false},
		{"not maximal singleton end", []int32{0}, false},
		{"not independent", []int32{0, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsMaximalIndependentSet(g, tt.nodes); got != tt.want {
				t.Errorf("IsMaximalIndependentSet(%v) = %v, want %v", tt.nodes, got, tt.want)
			}
		})
	}
}

func TestCaroWei(t *testing.T) {
	// d-regular graph: bound = n/(d+1).
	if got := CaroWei(graph.Cycle(9)); math.Abs(got-3) > 1e-9 {
		t.Errorf("CaroWei(C9) = %v, want 3", got)
	}
	if got := CaroWei(graph.Complete(5)); math.Abs(got-1) > 1e-9 {
		t.Errorf("CaroWei(K5) = %v, want 1", got)
	}
	if got := CaroWei(graph.Empty(4)); math.Abs(got-4) > 1e-9 {
		t.Errorf("CaroWei(empty4) = %v, want 4", got)
	}
}

func TestRatio(t *testing.T) {
	if r, err := Ratio(10, 5); err != nil || r != 2 {
		t.Errorf("Ratio(10,5) = %v,%v want 2,nil", r, err)
	}
	if r, err := Ratio(0, 0); err != nil || r != 1 {
		t.Errorf("Ratio(0,0) = %v,%v want 1,nil", r, err)
	}
	if _, err := Ratio(3, 0); err == nil {
		t.Error("Ratio(3,0) should error")
	}
}

// refGreedyMinDegreeLazy is the earlier bucket queue of GreedyMinDegree:
// per-degree LIFO stacks with lazy deletion, pushing a vertex again on
// every degree change and discarding stale entries at pop time. The
// linked-list kernel must select exactly the same vertices.
func refGreedyMinDegreeLazy(g *graph.Graph) []int32 {
	n := g.N()
	removed := make([]bool, n)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		maxDeg = max(maxDeg, deg[v])
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	var out []int32
	cursor := 0
	for {
		v := int32(-1)
		for cursor <= maxDeg {
			b := buckets[cursor]
			if len(b) == 0 {
				cursor++
				continue
			}
			cand := b[len(b)-1]
			buckets[cursor] = b[:len(b)-1]
			if !removed[cand] && deg[cand] == cursor {
				v = cand
				break
			}
		}
		if v < 0 {
			break
		}
		out = append(out, v)
		removed[v] = true
		g.ForEachNeighbor(v, func(u int32) bool {
			if removed[u] {
				return true
			}
			removed[u] = true
			g.ForEachNeighbor(u, func(w int32) bool {
				if !removed[w] {
					deg[w]--
					buckets[deg[w]] = append(buckets[deg[w]], w)
					cursor = min(cursor, deg[w])
				}
				return true
			})
			return true
		})
	}
	sortNodes(out)
	return out
}

func TestGreedyMinDegreeMatchesLazyBuckets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		var g *graph.Graph
		if rng.Intn(2) == 0 {
			g = graph.GnP(n, rng.Float64()*0.6, rng)
		} else {
			// Unions of cliques give many equal-degree ties.
			g = graph.Union(graph.Complete(1+rng.Intn(8)), graph.GnP(n, 0.05, rng))
		}
		return equalSets(GreedyMinDegree(g), refGreedyMinDegreeLazy(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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

func TestMinDegreeOracleCancelsMidSolve(t *testing.T) {
	// 1000 isolated nodes: polls on entry and after 256, 512 and 768
	// deletions. Cancelling on the second poll stops the kernel after 256
	// deletions; only the in-loop poll can observe it.
	g := graph.Empty(1000)
	ctx := cancelOnPoll(2)
	defer ctx.cancel()
	if _, err := (MinDegreeOracle{}).SolveAdjacency(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ctx.left != 0 {
		t.Errorf("kernel kept polling after the cancellation (%d polls left)", ctx.left)
	}
	set, err := (MinDegreeOracle{}).SolveAdjacency(cancelOnPoll(10), g)
	if err != nil || len(set) != 1000 {
		t.Fatalf("uncancelled solve: %d nodes, err %v", len(set), err)
	}
}
