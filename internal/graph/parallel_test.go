package graph

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pslocal/internal/engine"
)

// requireSameCSR asserts byte-for-byte CSR equality, the contract of the
// sharded assembly path.
func requireSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.offsets) != len(want.offsets) {
		t.Fatalf("offsets length %d, want %d", len(got.offsets), len(want.offsets))
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, got.offsets[i], want.offsets[i])
		}
	}
	if len(got.targets) != len(want.targets) {
		t.Fatalf("targets length %d, want %d", len(got.targets), len(want.targets))
	}
	for i := range want.targets {
		if got.targets[i] != want.targets[i] {
			t.Fatalf("targets[%d] = %d, want %d", i, got.targets[i], want.targets[i])
		}
	}
}

// randomEdges returns a multiset of valid edges with deliberate duplicates.
func randomEdges(n, m int, rng *rand.Rand) [][2]int32 {
	if n < 2 {
		return nil // a simple graph on < 2 nodes has no edges
	}
	out := make([][2]int32, 0, m)
	for len(out) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		out = append(out, [2]int32{u, v})
		if rng.Intn(4) == 0 { // duplicate, sometimes flipped
			out = append(out, [2]int32{v, u})
		}
	}
	return out
}

func TestParallelBuildEquivalentToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		m := rng.Intn(4 * n)
		edges := randomEdges(n, m, rng)

		serial := NewBuilder(n)
		for _, e := range edges {
			serial.AddEdge(e[0], e[1])
		}
		want, err := serial.Build()
		if err != nil {
			t.Fatalf("serial build: %v", err)
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("serial invariants: %v", err)
		}

		for _, shards := range []int{1, 2, 3, 8} {
			for _, workers := range []int{1, 2, 4} {
				sb := NewShardedBuilder(n, shards)
				for i, e := range edges {
					sb.Shard(i%shards).AddEdge(e[0], e[1])
				}
				got, err := sb.ParallelBuild(engine.Options{Workers: workers})
				if err != nil {
					t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
				}
				requireSameCSR(t, got, want)
			}
		}
	}
}

func TestShardedBuilderErrorsSurface(t *testing.T) {
	sb := NewShardedBuilder(4, 3)
	sb.Shard(0).AddEdge(0, 1)
	sb.Shard(1).AddEdge(2, 9) // out of range
	sb.Shard(2).AddEdge(3, 3) // self loop
	_, err := sb.ParallelBuild(engine.Options{Workers: 2})
	if !errors.Is(err, ErrNodeRange) {
		t.Errorf("missing ErrNodeRange: %v", err)
	}
	if !errors.Is(err, ErrSelfLoop) {
		t.Errorf("missing ErrSelfLoop: %v", err)
	}
}

func TestShardedBuilderNegativeSize(t *testing.T) {
	sb := NewShardedBuilder(-1, 2)
	if _, err := sb.Build(); !errors.Is(err, ErrNegativeSize) {
		t.Errorf("err = %v, want ErrNegativeSize", err)
	}
}

func TestParallelBuildCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sb := NewShardedBuilder(4, 2)
	sb.Shard(0).AddEdge(0, 1)
	_, err := sb.ParallelBuild(engine.Options{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEdgeCapacityHintPreservesResult(t *testing.T) {
	b1 := NewBuilder(10)
	b2 := NewBuilder(10)
	b2.EdgeCapacityHint(64)
	b2.EdgeCapacityHint(-1) // no-op
	rng := rand.New(rand.NewSource(9))
	for _, e := range randomEdges(10, 30, rng) {
		b1.AddEdge(e[0], e[1])
		b2.AddEdge(e[0], e[1])
	}
	g1 := b1.MustBuild()
	g2 := b2.MustBuild()
	requireSameCSR(t, g2, g1)
}

func TestParallelBuildNoDuplicatesFastPath(t *testing.T) {
	// A duplicate-free emission takes the "already final" branch; the
	// invariants must still hold.
	sb := NewShardedBuilder(5, 2)
	sb.Shard(0).AddEdge(0, 1)
	sb.Shard(0).AddEdge(1, 2)
	sb.Shard(1).AddEdge(3, 4)
	g, err := sb.ParallelBuild(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
}

// pollCounter is a context that counts its Err polls and cancels itself
// on the n-th (never when n <= 0), so a test can land a cancellation at
// any poll site of an assembly.
type pollCounter struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	polls  atomic.Int64
}

func cancelOnPoll(n int64) *pollCounter {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCounter{Context: ctx, cancel: cancel, n: n}
}

func (c *pollCounter) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAssemblyPollsInsideLoops checks that every assembly loop polls its
// context mid-loop, on one worker and on a pool. The instance has more
// than 64 Ki edges, nodes and adjacency entries, and duplicates, so the
// count, merge, scatter, sort and compaction loops all run long enough to
// poll. An uncancelled build with the polling context stays byte-identical
// to Build; cancelling at each poll in turn returns context.Canceled and
// leaves no goroutine behind.
func TestAssemblyPollsInsideLoops(t *testing.T) {
	const n, m = 70_000, 200_000
	rng := rand.New(rand.NewSource(21))
	edges := randomEdges(n, m, rng)
	build := func(opts engine.Options) (*Graph, error) {
		sb := NewShardedBuilder(n, 2)
		for i, e := range edges {
			sb.Shard(i%2).AddEdge(e[0], e[1])
		}
		return sb.ParallelBuild(opts)
	}
	want, err := build(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	countPolls := func(workers int) int64 {
		ctx := cancelOnPoll(0)
		g, err := build(engine.Options{Workers: workers, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		requireSameCSR(t, g, want)
		return ctx.polls.Load()
	}
	tiny := cancelOnPoll(0)
	sb := NewShardedBuilder(4, 2)
	sb.Shard(0).AddEdge(0, 1)
	sb.Shard(1).AddEdge(0, 1)
	if _, err := sb.ParallelBuild(engine.Options{Workers: 1, Ctx: tiny}); err != nil {
		t.Fatal(err)
	}
	// At one worker each loop polls once per 64 Ki units of its work:
	// edges in count and scatter, nodes in merge, adjacency entries (two
	// per edge, duplicates included) plus nodes in sort and compaction.
	e := int64(len(edges))
	midLoop := 2*(e/assemblePollEvery) + n/assemblePollEvery + 2*((2*e+n)/assemblePollEvery)
	for _, workers := range []int{1, 2} {
		total := countPolls(workers)
		t.Logf("workers=%d: %d polls, %d on a tiny graph", workers, total, tiny.polls.Load())
		if workers == 1 && total-tiny.polls.Load() != midLoop {
			t.Fatalf("workers=1: %d polls beyond a tiny graph's %d, want %d mid-loop",
				total-tiny.polls.Load(), tiny.polls.Load(), midLoop)
		}
		before := runtime.NumGoroutine()
		for i := int64(1); i <= total; i++ {
			ctx := cancelOnPoll(i)
			_, err := build(engine.Options{Workers: workers, Ctx: ctx})
			ctx.cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: cancel at poll %d of %d: error = %v, want context.Canceled", workers, i, total, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: goroutines leaked: %d before, %d after", workers, before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
