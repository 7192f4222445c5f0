package core

// implicit.go simulates G_k for row-at-a-time consumers (the min-degree
// greedy oracle): ImplicitGraph stores one degree per (edge, vertex) slot
// and generates a node's sorted neighbour row on demand from H, so a
// reduction phase never holds the |E(G_k)| edge list. DESIGN.md,
// "Implicit min-degree greedy", records the design.

import (
	"slices"

	"pslocal/internal/engine"
)

// ImplicitGraph is G_k without its edge list. It satisfies
// maxis.Adjacency: N, Degree and AppendNeighbors agree exactly with the
// CSR that BuildOpts materialises from the same Index (asserted by
// tests). AppendNeighbors uses internal scratch, so an ImplicitGraph
// serves one goroutine at a time.
type ImplicitGraph struct {
	ix *Index
	// slotDeg[s] is the degree of every triple of slot s = id / k, the
	// s-th (edge, vertex) incidence in edge order; it does not depend on
	// the colour.
	slotDeg []int32
	// slotEdge[s] is the edge of slot s.
	slotEdge []int32
	m        int
	// mark[u] == epoch flags the vertices of the edge whose row is being
	// generated.
	mark  []uint32
	epoch uint32
	// Row scratch: e's vertices, v's edges, u's edges, another edge g.
	edgeBuf, incV, incU, gBuf []int32
}

// NewImplicitGraph runs the count-only pass over ix: per slot, the size
// of the row AppendNeighbors will produce, and from their sum the edge
// count M. For triple t = (e, v, c), writing d(x) for H-degrees,
//
//	deg(t) = (|e|·k − 1)                       E_edge: the rest of e's block
//	       + (d(v) − 1)·(k − 1)                E_vertex: other edges at v, other colours
//	       + Σ_{u ∈ e, u ≠ v} (d(u) − 1)       E_color, container e: (g, u, c), g ≠ e
//	       + Σ_{g ∋ v, g ≠ e} (|g| − |g ∩ e|)  E_color, container g, minus container-e repeats
//
// so the pass needs only |g ∩ e| for the edges g meeting e, counted once
// per e. opts.Ctx is polled every 64 hyperedges; the pass runs serially.
func NewImplicitGraph(ix *Index, opts engine.Options) (*ImplicitGraph, error) {
	h, k := ix.h, int(ix.k)
	slots := int(ix.edgeOffset[h.M()]) / k
	a := &ImplicitGraph{
		ix:       ix,
		slotDeg:  make([]int32, slots),
		slotEdge: make([]int32, slots),
		mark:     make([]uint32, h.N()),
	}
	// meet[g] = |g ∩ e| while stamp[g] == e+1.
	meet := make([]int32, h.M())
	stamp := make([]int32, h.M())
	total := 0
	for e := 0; e < h.M(); e++ {
		if e%emitPollEvery == 0 {
			if err := opts.Err(); err != nil {
				return nil, err
			}
		}
		a.edgeBuf = h.AppendEdge(a.edgeBuf[:0], e)
		size := len(a.edgeBuf)
		sumOut := 0 // Σ_{u ∈ e} (d(u) − 1)
		for _, u := range a.edgeBuf {
			a.incU = h.AppendIncidentEdges(a.incU[:0], u)
			sumOut += len(a.incU) - 1
			for _, g := range a.incU {
				if stamp[g] != int32(e+1) {
					stamp[g], meet[g] = int32(e+1), 0
				}
				meet[g]++
			}
		}
		s := int(ix.edgeOffset[e]) / k
		for p, v := range a.edgeBuf {
			a.incV = h.AppendIncidentEdges(a.incV[:0], v)
			dv := len(a.incV)
			deg := size*k - 1 + (dv-1)*(k-1) + sumOut - (dv - 1)
			for _, g := range a.incV {
				if int(g) != e {
					deg += h.EdgeSize(int(g)) - int(meet[g])
				}
			}
			a.slotDeg[s+p] = int32(deg)
			a.slotEdge[s+p] = int32(e)
			total += deg
		}
	}
	a.m = total * k / 2
	return a, nil
}

// N returns |V(G_k)|.
func (a *ImplicitGraph) N() int { return a.ix.NumNodes() }

// M returns |E(G_k)|, equal to BuildOpts(ix).M().
func (a *ImplicitGraph) M() int { return a.m }

// Degree returns the degree of node id in G_k.
func (a *ImplicitGraph) Degree(id int32) int { return int(a.slotDeg[id/a.ix.k]) }

// AppendNeighbors appends the ascending neighbour row of node id — the
// same row the materialised CSR holds — to dst. Each neighbour is
// generated once: E_color pairs reached through both containers are kept
// only on the container-e side, via the epoch-stamped vertex mark.
func (a *ImplicitGraph) AppendNeighbors(dst []int32, id int32) []int32 {
	ix, h := a.ix, a.ix.h
	s := id / ix.k
	c := id%ix.k + 1
	e := a.slotEdge[s]
	blo, bhi := ix.edgeOffset[e], ix.edgeOffset[e+1]
	a.edgeBuf = h.AppendEdge(a.edgeBuf[:0], int(e))
	v := a.edgeBuf[s-blo/ix.k]
	start := len(dst)
	// E_edge: the rest of e's block.
	for x := blo; x < bhi; x++ {
		if x != id {
			dst = append(dst, x)
		}
	}
	// E_vertex: (g, v, d) for the other edges g at v and colours d ≠ c.
	a.incV = h.AppendIncidentEdges(a.incV[:0], v)
	posV := ix.incPos[v]
	for i, g := range a.incV {
		if g == e {
			continue
		}
		base := ix.idAt(g, posV[i], 1)
		for d := int32(0); d < ix.k; d++ {
			if d != c-1 {
				dst = append(dst, base+d)
			}
		}
	}
	// E_color, container e: (g, u, c) for u ∈ e \ {v} and edges g ≠ e at u.
	if a.epoch++; a.epoch == 0 {
		clear(a.mark)
		a.epoch = 1
	}
	for _, u := range a.edgeBuf {
		a.mark[u] = a.epoch
		if u == v {
			continue
		}
		a.incU = h.AppendIncidentEdges(a.incU[:0], u)
		posU := ix.incPos[u]
		for i, g := range a.incU {
			if g != e {
				dst = append(dst, ix.idAt(g, posU[i], c))
			}
		}
	}
	// E_color, container g: (g, u, c) for edges g ≠ e at v and u ∈ g \ e
	// (u ∈ e was emitted above; v itself is in e).
	for _, g := range a.incV {
		if g == e {
			continue
		}
		a.gBuf = h.AppendEdge(a.gBuf[:0], int(g))
		for p, u := range a.gBuf {
			if a.mark[u] != a.epoch {
				dst = append(dst, ix.idAt(g, int32(p), c))
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}
