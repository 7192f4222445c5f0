package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{4, 0.5, 2},
		{5, 0.5, 3},
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
		{1000, 0.9, 900},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if err != nil {
			t.Fatalf("n=%d q=%v: %v", tc.n, tc.q, err)
		}
		if got.Value != tc.want || got.N != tc.n {
			t.Errorf("n=%d q=%v: got %+v, want value %v over %d", tc.n, tc.q, got, tc.want, tc.n)
		}
	}
}

// A p99 needs ten samples above it: 1000 is the smallest sample that
// supports one, and the error names the shortfall.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(1000), 0.99); err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	q, err := percentile(seq(999), 0.99)
	if err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Fatalf("999 samples: err %v, want a 9-beyond refusal", err)
	}
	if q.N != 999 {
		t.Errorf("refusal reports n=%d, want 999", q.N)
	}
	if _, err := percentile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 leaves 10 beyond: %v", err)
	}
	if _, err := percentile(seq(3), 0.5); err != nil {
		t.Errorf("median is exempt: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("empty sample: want an error")
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// Self time is the span minus the union of its direct children, clipped
// to the span: overlapping children count once, grandchildren only
// through their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "parse", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "phase", Start: at(25), End: at(60)}, // overlaps parse by 5
		{ID: 4, Parent: 3, Name: "csr_build", Start: at(30), End: at(50)},
		{ID: 5, Parent: 1, Name: "encode", Start: at(90), End: at(120)}, // runs past its parent
		{ID: 6, Name: "probe", Start: at(40), End: at(45)},              // a root of its own
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond, // children cover 10..60 and 90..100
		2: 20 * time.Millisecond,
		3: 15 * time.Millisecond,
		4: 20 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}
