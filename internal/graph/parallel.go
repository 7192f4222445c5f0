package graph

// parallel.go implements the sharded CSR assembly path (DESIGN.md,
// "Execution engine"). Edge emission is partitioned across workers, each
// appending into a private per-shard buffer; the shards are then merged by
// the two-pass assembler without locks:
//
//	pass 1  per-shard degree counts              (parallel over shards)
//	merge   global prefix sum + per-shard cursor (serial, O(W·n))
//	pass 2  scatter into disjoint cursor ranges  (parallel over shards)
//	finish  per-node sort + dedupe               (parallel over node ranges)
//
// The merge step assigns every (shard, node) pair its own half-open slice
// of the targets array, so the scatter needs no atomics: shard w writes
// node v's entries at cursor[w][v]..cursor[w][v]+deg_w(v), ranges that are
// disjoint by construction. The final adjacency is sorted and duplicate
// free, so the assembled CSR is identical regardless of shard count or
// emission order — the property the equivalence tests assert.
//
// Every loop polls opts.Ctx once per assemblePollEvery edges, nodes or
// adjacency entries, also on one worker, so a cancelled request stops a
// large assembly mid-pass instead of at the next pass boundary.

import (
	"errors"
	"fmt"
	"slices"

	"pslocal/internal/engine"
)

// assemblePollEvery is how many units of work (edges in the count and
// scatter passes, nodes in the merge, adjacency entries plus nodes in the
// sort and compaction) each assembly loop does between context polls.
const assemblePollEvery = 1 << 16

// poller polls a context once per assemblePollEvery units of work. Each
// goroutine uses its own.
type poller struct {
	opts engine.Options
	done int
}

// add records work units and polls each time another assemblePollEvery
// have accrued, so a loop with w units in all polls w / assemblePollEvery
// times.
func (p *poller) add(work int) error {
	if p.done += work; p.done < assemblePollEvery {
		return nil
	}
	p.done -= assemblePollEvery
	return p.opts.Err()
}

// ShardedBuilder accumulates edges into per-shard buffers so multiple
// workers can emit concurrently without synchronisation. Distinct shards
// may be used from distinct goroutines at the same time; a single shard is
// not itself concurrency safe.
type ShardedBuilder struct {
	n      int
	shards []Builder
}

// NewShardedBuilder returns a builder for a graph on n nodes with the given
// number of independent emission shards (at least 1).
func NewShardedBuilder(n, shards int) *ShardedBuilder {
	if shards < 1 {
		shards = 1
	}
	sb := &ShardedBuilder{n: n, shards: make([]Builder, shards)}
	for i := range sb.shards {
		sb.shards[i].n = n
	}
	return sb
}

// NumShards returns the number of emission shards.
func (sb *ShardedBuilder) NumShards() int { return len(sb.shards) }

// Shard returns shard i's Builder. Each shard accepts AddEdge and
// EdgeCapacityHint exactly like a standalone Builder; errors are deferred
// to Build.
func (sb *ShardedBuilder) Shard(i int) *Builder { return &sb.shards[i] }

// Build assembles the graph serially (one merge worker).
func (sb *ShardedBuilder) Build() (*Graph, error) {
	return sb.ParallelBuild(engine.Options{Workers: 1})
}

// ParallelBuild assembles the graph on opts' worker pool. The result is
// byte-for-byte identical to the serial Build of the same edge multiset.
func (sb *ShardedBuilder) ParallelBuild(opts engine.Options) (*Graph, error) {
	shards := make([]*Builder, len(sb.shards))
	for i := range sb.shards {
		shards[i] = &sb.shards[i]
	}
	return assembleCSR(sb.n, shards, opts)
}

// assembleCSR is the two-pass CSR assembler shared by Builder.Build (one
// shard, one worker) and ShardedBuilder.ParallelBuild.
func assembleCSR(n int, shards []*Builder, opts engine.Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeSize, n)
	}
	var errs []error
	var weights []int64
	for _, sh := range shards {
		errs = append(errs, sh.errs...)
		if sh.badWeightLen {
			errs = append(errs, fmt.Errorf("%w: SetWeights vector for %d nodes", ErrWeightLength, n))
		}
		if sh.weights != nil {
			if weights != nil {
				errs = append(errs, fmt.Errorf("graph: weights set on more than one shard"))
			}
			weights = sh.weights
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	weights, werr := normalizeWeights(n, weights)
	if werr != nil {
		return nil, werr
	}
	if err := opts.Err(); err != nil {
		return nil, err
	}
	w := len(shards)

	// Pass 1: per-shard degree counts, each into a private array.
	degs := make([][]int32, w)
	err := opts.ForEachShard(w, func(_ int, s engine.Shard) error {
		p := poller{opts: opts}
		for i := s.Lo; i < s.Hi; i++ {
			sh := shards[i]
			d := make([]int32, n)
			for j := range sh.us {
				if err := p.add(1); err != nil {
					return err
				}
				d[sh.us[j]]++
				d[sh.vs[j]]++
			}
			degs[i] = d
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}

	// Merge: global offsets by prefix sum, rewriting each degs[w][v] in
	// place into shard w's private write cursor for node v. The cursor
	// ranges tile targets exactly, which is what makes pass 2 lock free.
	offsets := make([]int32, n+1)
	total := int32(0)
	p := poller{opts: opts}
	for v := 0; v < n; v++ {
		if err := p.add(1); err != nil {
			return nil, err
		}
		offsets[v] = total
		for i := 0; i < w; i++ {
			c := degs[i][v]
			degs[i][v] = total
			total += c
		}
	}
	offsets[n] = total

	// Pass 2: scatter, each shard through its own cursors.
	targets := make([]int32, total)
	err = opts.ForEachShard(w, func(_ int, s engine.Shard) error {
		p := poller{opts: opts}
		for i := s.Lo; i < s.Hi; i++ {
			sh, cur := shards[i], degs[i]
			for j := range sh.us {
				if err := p.add(1); err != nil {
					return err
				}
				u, v := sh.us[j], sh.vs[j]
				targets[cur[u]] = v
				cur[u]++
				targets[cur[v]] = u
				cur[v]++
			}
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}

	// Finish: per-node sort plus unique count (parallel over node ranges;
	// every node's adjacency slice is disjoint), then a serial prefix sum
	// and a parallel compaction into the final targets array.
	uniq := make([]int32, n)
	err = opts.ForEachShard(n, func(_ int, s engine.Shard) error {
		p := poller{opts: opts}
		for v := s.Lo; v < s.Hi; v++ {
			adj := targets[offsets[v]:offsets[v+1]]
			if err := p.add(len(adj) + 1); err != nil {
				return err
			}
			slices.Sort(adj)
			c := int32(0)
			for i, u := range adj {
				if i == 0 || adj[i-1] != u {
					c++
				}
			}
			uniq[v] = c
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}
	newOffsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newOffsets[v+1] = newOffsets[v] + uniq[v]
	}
	if newOffsets[n] == total {
		// No duplicates anywhere: the sorted scatter is already final.
		return &Graph{offsets: offsets, targets: targets, weights: weights}, nil
	}
	newTargets := make([]int32, newOffsets[n])
	err = opts.ForEachShard(n, func(_ int, s engine.Shard) error {
		p := poller{opts: opts}
		for v := s.Lo; v < s.Hi; v++ {
			adj := targets[offsets[v]:offsets[v+1]]
			if err := p.add(len(adj) + 1); err != nil {
				return err
			}
			write := newOffsets[v]
			for i, u := range adj {
				if i == 0 || adj[i-1] != u {
					newTargets[write] = u
					write++
				}
			}
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}
	return &Graph{offsets: newOffsets, targets: newTargets, weights: weights}, nil
}
