package core

// conflict.go constructs the conflict graph G_k of Section 2. BuildOpts
// materialises it as a CSR graph for the MaxIS oracles that need the
// whole graph. Everything else answers from H directly — mirroring the
// paper's observation that "the conflict graph G_k can be efficiently
// simulated in H in the LOCAL model": the neighbourhood of (e, v, c)
// depends only on the edges incident to v and to e's members, information
// within O(1) hops of v in the bipartite incidence structure of H.
// Adjacent tests one pair, FirstFitTriples and IndependentTriples scan a
// set in near-linear time, and ImplicitGraph (implicit.go) generates
// whole rows on demand, which lets an unweighted greedy-mindeg reduction
// skip BuildOpts entirely.
//
// The edge set, for distinct triples t1 = (e, v, c), t2 = (g, u, d):
//
//	E_edge:   e == g                                  (per-edge cliques)
//	E_vertex: v == u and c != d                       (one colour per vertex)
//	E_color:  c == d, v != u, and {u,v} ⊆ e or {u,v} ⊆ g
//
// E_color requires u != v: with u == v allowed, two identical singleton
// edges {v} would make the corresponding picks adjacent and Lemma 2.1(a)
// false; the lemma's proof (case E_color) indeed derives its contradiction
// from a vertex u distinct from v. DESIGN.md records this reading.
//
// Construction is sharded by hyperedge block (E_edge, E_color) and by
// vertex block (E_vertex) across the worker pool of engine.Options, each
// shard emitting into a private buffer of a graph.ShardedBuilder. Node ids
// come from pure offset arithmetic over the Index tables — NewIndex
// validated the structure once, so the emission loops have no validation
// errors; they return only a cancellation, polled every 64 hyperedges
// (vertices). DESIGN.md, "Execution engine", records the design.

import (
	"fmt"
	"sort"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
)

// Build materialises G_k for conflict-free k-colouring of h on the serial
// path; BuildOpts is the parallel variant.
func Build(ix *Index) (*graph.Graph, error) {
	return BuildOpts(ix, engine.Options{Workers: 1})
}

// BuildOpts materialises G_k on opts' worker pool. The resulting CSR is
// identical to the serial Build for every worker count (asserted by the
// equivalence tests).
func BuildOpts(ix *Index, opts engine.Options) (*graph.Graph, error) {
	h := ix.h
	sb := graph.NewShardedBuilder(ix.NumNodes(), opts.WorkerCount())
	// Phase A: E_edge cliques and E_color pairs, sharded by hyperedge
	// block. Phase B: E_vertex pairs, sharded by vertex block. The phases
	// run sequentially, so a shard buffer is never touched by two
	// goroutines at once.
	err := opts.ForEachShard(h.M(), func(shard int, s engine.Shard) error {
		return emitEdgeShard(ix, sb.Shard(shard), s.Lo, s.Hi, opts)
	})
	if err != nil {
		return nil, err
	}
	err = opts.ForEachShard(h.N(), func(shard int, s engine.Shard) error {
		return emitVertexShard(ix, sb.Shard(shard), s.Lo, s.Hi, opts)
	})
	if err != nil {
		return nil, err
	}
	g, err := sb.ParallelBuild(opts)
	if err != nil {
		return nil, fmt.Errorf("core: conflict graph assembly: %w", err)
	}
	if h.Weighted() {
		// Triple (e, v, c) inherits w_H(v), so a maximum-weight independent
		// set of G_k colours the heaviest vertices first — the weighted
		// conflict-free objective rides the unchanged reduction loop.
		ws := make([]int64, ix.NumNodes())
		ix.ForEachTriple(func(id int32, t Triple) bool {
			ws[id] = h.Weight(t.Vertex)
			return true
		})
		g, err = graph.WithWeights(g, ws)
		if err != nil {
			return nil, fmt.Errorf("core: conflict graph weights: %w", err)
		}
	}
	return g, nil
}

// emitPollEvery is how many hyperedges (vertices) the emission loops and
// the implicit degree pass handle between polls of the engine's context,
// so even a serial build stops soon after the client goes away.
const emitPollEvery = 64

// emitEdgeShard emits the E_edge cliques and E_color pairs whose container
// edge lies in [lo, hi). Every id is derived by offset arithmetic; the two
// endpoints can never coincide (same container: positions differ, different
// containers: disjoint id blocks), so no equality guard is needed. It polls
// opts every 64 hyperedges and returns the cancellation error.
func emitEdgeShard(ix *Index, b *graph.Builder, lo, hi int, opts engine.Options) error {
	h, k := ix.h, ix.k
	// Exact emission volume of the shard: Σ C(|e|k, 2) for the cliques
	// plus Σ_j Σ_{u ∈ e_j} (|e_j|-1)·deg(u)·k for E_color.
	hint := 0
	var edgeBuf, incBuf []int32
	for j := lo; j < hi; j++ {
		s := int(ix.edgeOffset[j+1] - ix.edgeOffset[j])
		hint += s * (s - 1) / 2
		edgeBuf = h.AppendEdge(edgeBuf[:0], j)
		for _, u := range edgeBuf {
			hint += (len(edgeBuf) - 1) * h.Degree(u) * int(k)
		}
	}
	b.EdgeCapacityHint(hint)
	for j := lo; j < hi; j++ {
		if (j-lo)%emitPollEvery == 0 {
			if err := opts.Err(); err != nil {
				return err
			}
		}
		// E_edge: clique over the |e|·k contiguous triples of edge j.
		blo, bhi := ix.edgeOffset[j], ix.edgeOffset[j+1]
		for a := blo; a < bhi; a++ {
			for bb := a + 1; bb < bhi; bb++ {
				b.AddEdge(a, bb)
			}
		}
		// E_color, container j: for each ordered pair of distinct vertices
		// (v, u) of edge j and each edge g containing u, connect
		// (j, v, c) — (g, u, c) for every colour c. (The g = j pairs are
		// already in the E_edge clique; the builder deduplicates.)
		edgeBuf = h.AppendEdge(edgeBuf[:0], j)
		for pu, u := range edgeBuf {
			incBuf = h.AppendIncidentEdges(incBuf[:0], u)
			pos := ix.incPos[u]
			for pv := range edgeBuf {
				if pv == pu {
					continue
				}
				base1 := ix.idAt(int32(j), int32(pv), 1)
				for i, g := range incBuf {
					base2 := ix.idAt(g, pos[i], 1)
					for c := int32(0); c < k; c++ {
						b.AddEdge(base1+c, base2+c)
					}
				}
			}
		}
	}
	return opts.Err()
}

// emitVertexShard emits the E_vertex pairs for vertices in [lo, hi): for
// each pair of distinct incident edges, connect differing colours. Pairs
// within a single incident edge are already inside its E_edge clique and
// are skipped here. It polls opts every 64 vertices and returns the
// cancellation error.
func emitVertexShard(ix *Index, b *graph.Builder, lo, hi int, opts engine.Options) error {
	h, k := ix.h, ix.k
	hint := 0
	for v := lo; v < hi; v++ {
		d := h.Degree(int32(v))
		hint += d * (d - 1) / 2 * int(k) * int(k-1)
	}
	b.EdgeCapacityHint(hint)
	var incBuf []int32
	for v := lo; v < hi; v++ {
		if (v-lo)%emitPollEvery == 0 {
			if err := opts.Err(); err != nil {
				return err
			}
		}
		incBuf = h.AppendIncidentEdges(incBuf[:0], int32(v))
		pos := ix.incPos[v]
		for i, e := range incBuf {
			baseE := ix.idAt(e, pos[i], 1)
			for i2 := i + 1; i2 < len(incBuf); i2++ {
				baseG := ix.idAt(incBuf[i2], pos[i2], 1)
				for c := int32(0); c < k; c++ {
					for d := int32(0); d < k; d++ {
						if c == d {
							continue
						}
						b.AddEdge(baseE+c, baseG+d)
					}
				}
			}
		}
	}
	return opts.Err()
}

// Adjacent reports whether two triples are adjacent in G_k, directly from
// the definition (no materialisation).
func Adjacent(ix *Index, t1, t2 Triple) (bool, error) {
	if _, err := ix.ID(t1); err != nil {
		return false, err
	}
	if _, err := ix.ID(t2); err != nil {
		return false, err
	}
	if t1 == t2 {
		return false, nil
	}
	if t1.Edge == t2.Edge {
		return true, nil // E_edge
	}
	if t1.Vertex == t2.Vertex && t1.Color != t2.Color {
		return true, nil // E_vertex
	}
	if t1.Color == t2.Color && t1.Vertex != t2.Vertex {
		// E_color: {u, v} ⊆ e or {u, v} ⊆ g. t1.Vertex ∈ e and
		// t2.Vertex ∈ g hold by construction.
		if ix.h.EdgeContains(int(t1.Edge), t2.Vertex) || ix.h.EdgeContains(int(t2.Edge), t1.Vertex) {
			return true, nil
		}
	}
	return false, nil
}

// FirstFitTriples runs the first-fit greedy independent set directly on
// the implicit conflict graph: triples are scanned in dense id order —
// descending vertex weight (stable, so dense id order within equal
// weights) on weighted hypergraphs — and kept when compatible with
// everything kept so far. The blocking tests use only H-local
// information, so the scan runs in O(Σ_e |e| · k · (|e| + deg_H)) time
// without building G_k. On unweighted inputs the result equals first-fit
// greedy on the explicit graph (asserted by tests) and powers the
// reduction's large-instance mode. For repeated scans (one per reduction
// phase) use FirstFitScratch, which reuses its buffers across calls.
func FirstFitTriples(ix *Index) []Triple {
	var s FirstFitScratch
	return s.FirstFit(ix)
}

// FirstFitScratch is the batched variant of FirstFitTriples: it holds the
// per-scan state (edge choices, vertex colours, output) and reuses it
// across calls, so a multi-phase reduction allocates the buffers once
// instead of once per phase. The zero value is ready to use.
type FirstFitScratch struct {
	// edgeChoice[e] = chosen triple on edge e when hasChoice[e] (E_edge
	// allows at most one).
	edgeChoice []Triple
	hasChoice  []bool
	// vertexColor[v] = colour of v's chosen triples (E_vertex forces
	// uniqueness; 0 = none).
	vertexColor []int32
	out         []Triple
	order       []Triple // weighted-scan ordering buffer
}

// FirstFit runs the first-fit scan on ix, reusing the scratch buffers. On
// weighted hypergraphs the scan visits triples by descending vertex
// weight (stable within equal weights), so heavy vertices claim their
// colours first; first-fit over any order yields a maximal independent
// set of G_k, so the accept logic is unchanged. The returned slice is
// owned by the scratch and valid until the next call; callers that retain
// it across calls must copy it.
func (s *FirstFitScratch) FirstFit(ix *Index) []Triple {
	h := ix.h
	s.edgeChoice = resize(s.edgeChoice, h.M())
	s.hasChoice = resize(s.hasChoice, h.M())
	s.vertexColor = resize(s.vertexColor, h.N())
	s.out = s.out[:0]
	if h.Weighted() {
		s.order = s.order[:0]
		ix.ForEachTriple(func(_ int32, t Triple) bool {
			s.order = append(s.order, t)
			return true
		})
		sort.SliceStable(s.order, func(a, b int) bool {
			return h.Weight(s.order[a].Vertex) > h.Weight(s.order[b].Vertex)
		})
		for _, t := range s.order {
			s.tryAccept(ix, t)
		}
		return s.out
	}
	ix.ForEachTriple(func(_ int32, t Triple) bool {
		s.tryAccept(ix, t)
		return true
	})
	return s.out
}

// tryAccept adds t to the chosen set when no chosen triple blocks it.
func (s *FirstFitScratch) tryAccept(ix *Index, t Triple) {
	h := ix.h
	if s.hasChoice[t.Edge] {
		return // E_edge block
	}
	if vc := s.vertexColor[t.Vertex]; vc != 0 && vc != t.Color {
		return // E_vertex block
	}
	// E_color, container e: some chosen triple with colour t.Color at
	// another vertex of t.Edge.
	blocked := false
	h.ForEachEdgeVertex(int(t.Edge), func(u int32) bool {
		if u != t.Vertex && s.vertexColor[u] == t.Color {
			blocked = true
			return false
		}
		return true
	})
	if blocked {
		return
	}
	// E_color, container g: a chosen triple (g, u, t.Color) with u
	// different from t.Vertex on an edge g containing t.Vertex.
	h.ForEachIncidentEdge(t.Vertex, func(g int32) bool {
		if s.hasChoice[g] {
			if ch := s.edgeChoice[g]; ch.Color == t.Color && ch.Vertex != t.Vertex {
				blocked = true
				return false
			}
		}
		return true
	})
	if blocked {
		return
	}
	s.edgeChoice[t.Edge] = t
	s.hasChoice[t.Edge] = true
	s.vertexColor[t.Vertex] = t.Color
	s.out = append(s.out, t)
}

// resize returns buf with length n and every element zeroed, reallocating
// only when the capacity is insufficient.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// IsIndependentTriples reports whether the given triples are pairwise
// non-adjacent in G_k (quadratic; intended for verification in tests and
// experiments).
func IsIndependentTriples(ix *Index, ts []Triple) (bool, error) {
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if ts[i] == ts[j] {
				return false, nil
			}
			adj, err := Adjacent(ix, ts[i], ts[j])
			if err != nil {
				return false, err
			}
			if adj {
				return false, nil
			}
		}
	}
	return true, nil
}

// IndependentTriples reports whether the given triples are pairwise
// non-adjacent in G_k, in O(Σ_e |e| + |ts|) time: it is
// IsIndependentTriples without the quadratic pair scan. A per-edge map
// enforces E_edge (at most one triple per edge) and a per-vertex colour
// map E_vertex (one colour per vertex); then E_color through either
// container reduces to one scan per triple (e, v, c) of e's other
// vertices for colour c — for a conflicting pair (e, v, c), (g, u, c),
// u ∈ e is caught by the scan of e and v ∈ g by the scan of g. An invalid
// triple is an ErrBadTriple error.
func IndependentTriples(ix *Index, ts []Triple) (bool, error) {
	h := ix.h
	hasEdge := make([]bool, h.M())
	color := make([]int32, h.N()) // 0 = no triple at the vertex yet
	for _, t := range ts {
		if t.Edge < 0 || int(t.Edge) >= h.M() || t.Color < 1 || t.Color > ix.k ||
			!h.EdgeContains(int(t.Edge), t.Vertex) {
			return false, fmt.Errorf("%w: %v", ErrBadTriple, t)
		}
		if hasEdge[t.Edge] {
			return false, nil // E_edge (or a repeated triple)
		}
		hasEdge[t.Edge] = true
		if c := color[t.Vertex]; c != 0 && c != t.Color {
			return false, nil // E_vertex
		}
		color[t.Vertex] = t.Color
	}
	for _, t := range ts {
		independent := true
		h.ForEachEdgeVertex(int(t.Edge), func(u int32) bool {
			independent = u == t.Vertex || color[u] != t.Color
			return independent
		})
		if !independent {
			return false, nil // E_color
		}
	}
	return true, nil
}

// IDsToTriples maps dense node ids to triples.
func IDsToTriples(ix *Index, ids []int32) ([]Triple, error) {
	out := make([]Triple, len(ids))
	for i, id := range ids {
		t, err := ix.TripleOf(id)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// TriplesToIDs maps triples to dense node ids.
func TriplesToIDs(ix *Index, ts []Triple) ([]int32, error) {
	out := make([]int32, len(ts))
	for i, t := range ts {
		id, err := ix.ID(t)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}
