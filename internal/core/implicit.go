package core

// implicit.go simulates G_k for row-at-a-time consumers (the min-degree
// greedy oracle). ImplicitGraph stores one degree per (edge, vertex) slot
// and, per edge e, a meet index: the colour-1 ids of the other edges'
// triples on e's vertices, ascending. A node's neighbour row is a single
// ascending walk over the edges that meet e, so it comes out in CSR order
// with no sort, and a reduction phase never holds the |E(G_k)| edge list.
// DESIGN.md, "Implicit min-degree greedy", records the design.

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
	// meetID[meetOff[e]:meetOff[e+1]] is e's meet index: the id of
	// (g, u, 1) for every edge g ≠ e and vertex u ∈ g ∩ e, ascending, i.e.
	// grouped by g and ordered by u's position in g. Σ_u d(u)·(d(u) − 1)
	// entries in all.
	meetOff []int
	meetID  []int32
	m       int
	// Row scratch: e's vertices, v's edges.
	edgeBuf, incV []int32
}

// NewImplicitGraph builds the meet index and runs the degree pass over
// ix: per slot, the size of the row AppendNeighbors will produce, and
// from their sum the edge count M. For triple t = (e, v, c), writing d(x)
// for H-degrees,
//
//	deg(t) = (|e|·k − 1)                       E_edge: the rest of e's block
//	       + (d(v) − 1)·(k − 1)                E_vertex: other edges at v, other colours
//	       + Σ_{u ∈ e, u ≠ v} (d(u) − 1)       E_color, container e: (g, u, c), g ≠ e
//	       + Σ_{g ∋ v, g ≠ e} (|g| − |g ∩ e|)  E_color, container g, minus container-e repeats
//
// |g ∩ e| is the length of g's group in e's meet index. The index is
// filled by one sweep over the edges g in ascending order, which appends
// each group in place, already sorted. opts.Ctx is polled every 64
// hyperedges of that sweep; the pass runs serially.
func NewImplicitGraph(ix *Index, opts engine.Options) (*ImplicitGraph, error) {
	h, k, m := ix.h, ix.k, ix.h.M()
	slots := int(ix.edgeOffset[m] / k)
	a := &ImplicitGraph{
		ix:       ix,
		slotDeg:  make([]int32, slots),
		slotEdge: make([]int32, slots),
		meetOff:  make([]int, m+1),
	}
	// Count e's meet entries, Σ_{u ∈ e} (d(u) − 1), and add each slot's
	// first three degree terms. The row scratch doubles as the pass's.
	buf, inc := a.edgeBuf, a.incV
	for e := 0; e < m; e++ {
		buf = h.AppendEdge(buf[:0], e)
		out := int32(0)
		for _, u := range buf {
			out += int32(h.Degree(u)) - 1
		}
		a.meetOff[e+1] = a.meetOff[e] + int(out)
		s := ix.edgeOffset[e] / k
		for p, v := range buf {
			dv := int32(h.Degree(v))
			a.slotDeg[s+int32(p)] = int32(len(buf))*k - 1 + (dv-1)*(k-1) + out - (dv - 1)
			a.slotEdge[s+int32(p)] = int32(e)
		}
	}
	a.meetID = make([]int32, a.meetOff[m])
	// next[e] is e's write cursor; groupStart[e] is where the current
	// g's group began in e's index.
	next := make([]int, m)
	copy(next, a.meetOff)
	groupStart := make([]int, m)
	for g := 0; g < m; g++ {
		if g%emitPollEvery == 0 {
			if err := opts.Err(); err != nil {
				return nil, err
			}
		}
		buf = h.AppendEdge(buf[:0], g)
		lo := ix.edgeOffset[g]
		for p, u := range buf {
			inc = h.AppendIncidentEdges(inc[:0], u)
			for _, e := range inc {
				if int(e) == g {
					continue
				}
				at := next[e]
				if at == a.meetOff[e] || a.meetID[at-1] < lo {
					groupStart[e] = at
				}
				a.meetID[at] = lo + int32(p)*k
				next[e] = at + 1
			}
		}
		// The last term: g's group in e's index is complete, so every
		// v ∈ g ∩ e gains |g| − |g ∩ e|.
		for _, v := range buf {
			inc = h.AppendIncidentEdges(inc[:0], v)
			posV := ix.incPos[v]
			for i, e := range inc {
				if int(e) != g {
					a.slotDeg[ix.edgeOffset[e]/k+posV[i]] += int32(len(buf) - (next[e] - groupStart[e]))
				}
			}
		}
	}
	a.edgeBuf, a.incV = buf, inc
	total := 0
	for _, d := range a.slotDeg {
		total += int(d)
	}
	a.m = total * int(k) / 2
	return a, nil
}

// N returns |V(G_k)|.
func (a *ImplicitGraph) N() int { return a.ix.NumNodes() }

// M returns |E(G_k)|, equal to BuildOpts(ix).M().
func (a *ImplicitGraph) M() int { return a.m }

// Degree returns the degree of node id in G_k.
func (a *ImplicitGraph) Degree(id int32) int { return int(a.slotDeg[id/a.ix.k]) }

// AppendNeighbors appends the ascending neighbour row of node id = (e, v,
// c) — the same row the materialised CSR holds — to dst. Node ids run by
// edge, then position, then colour, so the row is one walk over the edges
// g that meet e, in ascending order, with each g's ids emitted ascending:
//
//   - g = e: the rest of e's block (E_edge);
//   - g ∋ v: colour c at every other position of g, and the other colours
//     at v's position (E_color through either container, and E_vertex);
//   - g ∌ v: colour c at the positions of g ∩ e (E_color, container e),
//     read straight off e's meet index.
//
// No id is reached twice, so the row needs neither a dedupe nor a sort.
// Its length is Degree(id), so dst grows at most once, and not at all
// when it has room for the row.
func (a *ImplicitGraph) AppendNeighbors(dst []int32, id int32) []int32 {
	ix, h, k := a.ix, a.ix.h, a.ix.k
	s := id / k
	c := id % k
	e := a.slotEdge[s]
	blo, bhi := ix.edgeOffset[e], ix.edgeOffset[e+1]
	a.edgeBuf = h.AppendEdge(a.edgeBuf[:0], int(e))
	v := a.edgeBuf[s-blo/k]
	a.incV = h.AppendIncidentEdges(a.incV[:0], v)
	posV := ix.incPos[v]
	meet := a.meetID[a.meetOff[e]:a.meetOff[e+1]]
	start, deg := len(dst), int(a.slotDeg[s])
	dst = slices.Grow(dst, deg)
	row := dst[start : start+deg]
	w, i := 0, 0
	for j, g := range a.incV {
		lo, hi := ix.edgeOffset[g], ix.edgeOffset[g+1]
		for ; i < len(meet) && meet[i] < lo; i++ {
			row[w] = meet[i] + c
			w++
		}
		if g == e {
			for x := blo; x < bhi; x++ {
				if x != id {
					row[w] = x
					w++
				}
			}
			continue
		}
		at := lo + posV[j]*k
		for x := lo + c; x < at; x += k {
			row[w] = x
			w++
		}
		for d := int32(0); d < k; d++ {
			if d != c {
				row[w] = at + d
				w++
			}
		}
		for x := at + k + c; x < hi; x += k {
			row[w] = x
			w++
		}
		for i < len(meet) && meet[i] < hi {
			i++
		}
	}
	for _, x := range meet[i:] {
		row[w] = x + c
		w++
	}
	return dst[:start+deg]
}
