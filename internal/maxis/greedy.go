package maxis

// greedy.go implements the heuristic oracles: min-degree greedy (meets the
// Caro–Wei bound), fixed-order greedy (the locality-1 SLOCAL greedy of the
// paper's introduction, run centrally), and random-permutation greedy.

import (
	"context"
	"fmt"
	"math/rand"

	"pslocal/internal/graph"
)

// GreedyMinDegree repeatedly selects a minimum-degree vertex of the
// remaining graph, adds it to the independent set, and deletes its closed
// neighbourhood. The result always has size at least the Caro–Wei bound
// Σ 1/(deg+1).
func GreedyMinDegree(g *graph.Graph) []int32 {
	out, _ := minDegreeGreedy(context.Background(), g) // never cancelled, so never fails
	return out
}

// Adjacency is the read-only graph view the min-degree kernel runs on:
// *graph.Graph satisfies it, and so does core's implicit conflict graph,
// which generates rows on demand instead of storing them. AppendNeighbors
// must append v's neighbours in ascending order without duplicates — the
// CSR row — so that every Adjacency describing the same graph drives the
// kernel through the same selections.
type Adjacency interface {
	N() int
	Degree(v int32) int
	AppendNeighbors(dst []int32, v int32) []int32
}

// AdjacencySolver is implemented by oracles that can solve an unweighted
// instance on any Adjacency, returning exactly what Solve returns on the
// materialised graph. core's reduction uses it to skip building G_k.
type AdjacencySolver interface {
	SolveAdjacency(ctx context.Context, a Adjacency) ([]int32, error)
}

// minDegPollEvery is how many node deletions the min-degree kernel makes
// between context polls. Deletions, not selections, pace the polls: each
// deletion generates one neighbour row, while on G_k an independent set
// holds at most one node per hyperedge, so selections are few and each
// can delete thousands of nodes.
const minDegPollEvery = 256

// minDegreeGreedy is the min-degree greedy kernel over any Adjacency.
// Residual degrees live in a bucket queue of intrusive doubly linked
// lists, one per degree, each pushed at the front: the kernel always
// takes the head of the lowest non-empty bucket, i.e. the vertex that
// most recently reached the minimum residual degree (the highest id among
// untouched vertices). Memory is O(n + maxDeg) beyond two row buffers.
// ctx is polled on entry and every 256 node deletions. The result is
// sorted ascending.
func minDegreeGreedy[A Adjacency](ctx context.Context, a A) ([]int32, error) {
	n := a.N()
	q := degreeQueue{
		deg:     make([]int32, n),
		next:    make([]int32, n),
		prev:    make([]int32, n),
		removed: make([]bool, n),
		ctx:     ctx,
	}
	if err := q.poll(); err != nil {
		return nil, err
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := a.Degree(int32(v))
		q.deg[v] = int32(d)
		maxDeg = max(maxDeg, d)
	}
	q.head = make([]int32, maxDeg+1)
	for d := range q.head {
		q.head[d] = -1
	}
	for v := int32(0); int(v) < n; v++ {
		q.push(v)
	}
	var out, rowV, rowU []int32
	cursor := int32(0)
	for {
		for int(cursor) <= maxDeg && q.head[cursor] < 0 {
			cursor++
		}
		if int(cursor) > maxDeg {
			break
		}
		v := q.head[cursor]
		if err := q.remove(v); err != nil {
			return nil, err
		}
		out = append(out, v)
		// Delete N(v); decrement the residual degrees of their still-present
		// neighbours, moving each to the front of its new bucket.
		rowV = a.AppendNeighbors(rowV[:0], v)
		for _, u := range rowV {
			if q.removed[u] {
				continue
			}
			if err := q.remove(u); err != nil {
				return nil, err
			}
			rowU = a.AppendNeighbors(rowU[:0], u)
			for _, w := range rowU {
				if q.removed[w] {
					continue
				}
				q.unlink(w)
				q.deg[w]--
				q.push(w)
				cursor = min(cursor, q.deg[w])
			}
		}
	}
	sortNodes(out)
	return out, nil
}

// degreeQueue is the kernel's bucket queue: head[d] starts the list of
// live vertices with residual degree d, linked through next/prev (-1 ends
// a list).
type degreeQueue struct {
	deg, next, prev, head []int32
	removed               []bool
	deleted               int
	ctx                   context.Context
}

// push links v at the front of the bucket of its current degree.
func (q *degreeQueue) push(v int32) {
	d := q.deg[v]
	h := q.head[d]
	q.prev[v], q.next[v] = -1, h
	if h >= 0 {
		q.prev[h] = v
	}
	q.head[d] = v
}

// unlink takes v out of its bucket.
func (q *degreeQueue) unlink(v int32) {
	p, nx := q.prev[v], q.next[v]
	if p >= 0 {
		q.next[p] = nx
	} else {
		q.head[q.deg[v]] = nx
	}
	if nx >= 0 {
		q.prev[nx] = p
	}
}

// remove deletes v from the residual graph, polling the context every
// minDegPollEvery deletions.
func (q *degreeQueue) remove(v int32) error {
	q.unlink(v)
	q.removed[v] = true
	if q.deleted++; q.deleted%minDegPollEvery == 0 {
		return q.poll()
	}
	return nil
}

// poll reports the context's cancellation.
func (q *degreeQueue) poll() error { return q.ctx.Err() }

// GreedyOrder scans vertices in the given order and adds each vertex whose
// neighbours have not been added yet — exactly the locality-1 SLOCAL
// algorithm for MIS described in the paper's introduction. The order must
// be a permutation of 0..n-1; violations are reported via error.
func GreedyOrder(g *graph.Graph, order []int32) ([]int32, error) {
	return greedyOrderAuto(nil, g, order)
}

// greedyOrderAuto validates the order and scans it with the dense kernel
// when the graph clears the density cutoff (or a pack was injected), the
// CSR walk otherwise. Both paths produce the identical set for any order.
func greedyOrderAuto(injected *Dense, g *graph.Graph, order []int32) ([]int32, error) {
	if err := validateOrder(g, order); err != nil {
		return nil, err
	}
	if d := denseFor(injected, g); d != nil {
		return greedyOrderDense(d, order), nil
	}
	return greedyOrderList(g, order), nil
}

// greedyOrderList is the CSR-walking order scan; callers have validated
// the order.
func greedyOrderList(g *graph.Graph, order []int32) []int32 {
	inSet := make([]bool, g.N())
	var out []int32
	for _, v := range order {
		blocked := false
		g.ForEachNeighbor(v, func(u int32) bool {
			if inSet[u] {
				blocked = true
				return false
			}
			return true
		})
		if !blocked {
			inSet[v] = true
			out = append(out, v)
		}
	}
	sortNodes(out)
	return out
}

// validateOrder checks that order is a permutation of 0..n-1.
func validateOrder(g *graph.Graph, order []int32) error {
	n := g.N()
	if len(order) != n {
		return fmt.Errorf("maxis: order length %d, graph has %d nodes", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("maxis: order is not a permutation (offender %d)", v)
		}
		seen[v] = true
	}
	return nil
}

// GreedyRandomOrder runs GreedyOrder on a uniformly random permutation.
func GreedyRandomOrder(g *graph.Graph, rng *rand.Rand) []int32 {
	order := make([]int32, g.N())
	for i, p := range rng.Perm(g.N()) {
		order[i] = int32(p)
	}
	out, err := GreedyOrder(g, order)
	if err != nil {
		// A permutation from rng.Perm is always valid; reaching this is a
		// programming bug, not an input error.
		panic(err)
	}
	return out
}

// MinDegreeOracle adapts GreedyMinDegree to the Oracle interface.
type MinDegreeOracle struct{}

// Name implements Oracle.
func (MinDegreeOracle) Name() string { return "greedy-mindeg" }

// Solve implements Oracle. Weighted instances route to the weighted
// greedy (descending weight/(deg+1) order); unweighted ones keep the
// adaptive bucket-queue greedy unchanged.
func (MinDegreeOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return GreedyWeighted(g), nil
	}
	return GreedyMinDegree(g), nil
}

// SolveAdjacency implements AdjacencySolver with the same kernel Solve
// runs on unweighted graphs.
func (MinDegreeOracle) SolveAdjacency(ctx context.Context, a Adjacency) ([]int32, error) {
	return minDegreeGreedy(ctx, a)
}

// RandomOrderOracle adapts GreedyRandomOrder to the Oracle interface with a
// deterministic per-call seed sequence.
type RandomOrderOracle struct {
	// Seed initialises the oracle's private random stream.
	Seed  int64
	rng   *rand.Rand
	dense *Dense
}

// Name implements Oracle.
func (o *RandomOrderOracle) Name() string { return "greedy-random" }

// SetDense implements DenseSetter.
func (o *RandomOrderOracle) SetDense(d *Dense) { o.dense = d }

// Solve implements Oracle. On weighted instances the random permutation
// only breaks weight/(deg+1) ratio ties, so the scan still follows the
// weighted Caro–Wei order.
func (o *RandomOrderOracle) Solve(g *graph.Graph) ([]int32, error) {
	if o.rng == nil {
		o.rng = rand.New(rand.NewSource(o.Seed))
	}
	if g.Weighted() {
		pos := make([]int32, g.N())
		for i, p := range o.rng.Perm(g.N()) {
			pos[p] = int32(i)
		}
		return greedyOrderAuto(o.dense, g, weightedRatioOrder(g, pos))
	}
	order := make([]int32, g.N())
	for i, p := range o.rng.Perm(g.N()) {
		order[i] = int32(p)
	}
	return greedyOrderAuto(o.dense, g, order)
}

// FirstFitOracle runs GreedyOrder on the identity permutation; it is the
// weakest reasonable oracle and a useful adversarial baseline.
type FirstFitOracle struct {
	dense *Dense
}

// Name implements Oracle.
func (FirstFitOracle) Name() string { return "greedy-firstfit" }

// SetDense implements DenseSetter.
func (o *FirstFitOracle) SetDense(d *Dense) { o.dense = d }

// Solve implements Oracle. Weighted instances scan in the weighted
// Caro–Wei order instead of the identity permutation — first-fit over an
// arbitrary order forfeits the weighted guarantee entirely.
func (o FirstFitOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return greedyWeightedAuto(o.dense, g), nil
	}
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}
	return greedyOrderAuto(o.dense, g, order)
}

// MinDegreeBitsetOracle adapts the dense min-degree kernel to the Oracle
// interface; it is registered as "greedy-mindeg-bitset". Its selection
// tie-break (smallest id among minimum-residual-degree vertices) differs
// from MinDegreeOracle's bucket queue, so the two are distinct registry
// members rather than one auto-routing oracle — both meet the Caro–Wei
// bound, and racing them in a portfolio is free diversity.
type MinDegreeBitsetOracle struct {
	dense *Dense
}

// Name implements Oracle.
func (MinDegreeBitsetOracle) Name() string { return "greedy-mindeg-bitset" }

// SetDense implements DenseSetter.
func (o *MinDegreeBitsetOracle) SetDense(d *Dense) { o.dense = d }

// Solve implements Oracle. Weighted instances route to the weighted
// greedy on the packed adjacency.
func (o MinDegreeBitsetOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return greedyWeightedAuto(o.dense, g), nil
	}
	return greedyMinDegreeAuto(o.dense, g), nil
}

// ExactOracle adapts the exact solver to the Oracle interface (λ = 1).
type ExactOracle struct {
	// Options forwards solver options, e.g. a clique hint or budget.
	Options ExactOptions
	dense   *Dense
}

// Name implements Oracle.
func (ExactOracle) Name() string { return "exact" }

// SetDense implements DenseSetter.
func (o *ExactOracle) SetDense(d *Dense) { o.dense = d }

// Solve implements Oracle.
func (o ExactOracle) Solve(g *graph.Graph) ([]int32, error) {
	opts := o.Options
	if opts.Dense == nil {
		opts.Dense = o.dense
	}
	return ExactOpts(g, opts)
}

// SolveContext implements ContextSolver: the branch-and-bound polls ctx
// and returns its error (with the best set so far) soon after
// cancellation. An explicit Options.Ctx wins over ctx.
func (o ExactOracle) SolveContext(ctx context.Context, g *graph.Graph) ([]int32, error) {
	opts := o.Options
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	if opts.Dense == nil {
		opts.Dense = o.dense
	}
	return ExactOpts(g, opts)
}
