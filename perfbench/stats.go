package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is an anecdote, not a measurement.
const minBeyond = 10

// quantile is one percentile of a sample, with the count it rests on.
type quantile struct {
	Value float64 // nearest-rank percentile
	N     int     // sample count
}

// percentile returns the nearest-rank q-quantile of xs (q in (0,1]). It
// fails when fewer than minBeyond samples lie above the rank, so a p99
// needs at least 1000 samples. The median is exempt: half the sample
// lies beyond it.
func percentile(xs []float64, q float64) (quantile, error) {
	n := len(xs)
	if n == 0 {
		return quantile{}, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = max(rank, 1)
	if beyond := n - rank; q > 0.5 && beyond < minBeyond {
		return quantile{N: n}, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank-1], N: n}, nil
}

// median is the nearest-rank median; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	q, _ := percentile(xs, 0.5)
	return q.Value
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds, keeping sub-µs digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call recorded by the traced replay.
type span struct {
	ID, Parent int // Parent 0 = root; IDs start at 1
	Name       string
	Request    string // request id the call belongs to
	Start, End time.Time
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// count once, and child time outside the parent's interval not at all).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
