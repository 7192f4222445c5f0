package obs

// hist_test.go pins the histogram's edge cases through its rendered
// buckets: an empty histogram, sub-microsecond samples landing in bucket
// 0, negative durations clamping instead of wrapping into the top
// bucket, the top bucket, the bucket each sample lands in (whose le is
// the upper bound a quantile reads), and concurrent observe/render
// safety under -race.

import (
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

// newHistRegistry returns a registry holding one unlabeled histogram.
func newHistRegistry() (*Registry, *Histogram) {
	r := NewRegistry()
	return r, r.Histogram("h_seconds", "Test histogram.")
}

// scrape renders r and parses it back; the parser checks the buckets are
// cumulative and that +Inf equals _count.
func scrape(r *Registry) (*Exposition, error) {
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	return ParseExposition(strings.NewReader(sb.String()))
}

// mustScrape is scrape for the test goroutine.
func mustScrape(t *testing.T, r *Registry) *Exposition {
	t.Helper()
	e, err := scrape(r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// histValue reads one h_seconds sample: suffix is _bucket (with le),
// _sum or _count.
func histValue(t *testing.T, e *Exposition, suffix, le string) float64 {
	t.Helper()
	var labels []Label
	if le != "" {
		labels = append(labels, L("le", le))
	}
	v, ok := e.Value("h_seconds"+suffix, labels...)
	if !ok {
		t.Fatalf("no h_seconds%s{le=%q} sample", suffix, le)
	}
	return v
}

// bucketLines counts the rendered h_seconds_bucket samples, +Inf included.
func bucketLines(e *Exposition) int {
	n := 0
	for _, s := range e.Samples {
		if s.Name == "h_seconds_bucket" {
			n++
		}
	}
	return n
}

// le renders bucket i's upper bound the way the exposition spells it.
func le(i int) string { return formatFloat(float64(bucketUpperUS(i)) / 1e6) }

func TestHistogramEmpty(t *testing.T) {
	r, _ := newHistRegistry()
	e := mustScrape(t, r)
	if inf, count, sum := histValue(t, e, "_bucket", "+Inf"), histValue(t, e, "_count", ""), histValue(t, e, "_sum", ""); inf != 0 || count != 0 || sum != 0 {
		t.Fatalf("empty histogram: +Inf %g, count %g, sum %g", inf, count, sum)
	}
	if n := bucketLines(e); n != 1 {
		t.Fatalf("empty histogram rendered %d bucket lines, want only +Inf", n)
	}
}

func TestHistogramSubMicrosecondBucketZero(t *testing.T) {
	r, h := newHistRegistry()
	h.Observe(0)
	h.Observe(500 * time.Nanosecond) // truncates to 0 µs
	e := mustScrape(t, r)
	if got := histValue(t, e, "_bucket", "0"); got != 2 {
		t.Fatalf("le=0 bucket = %g, want both sub-microsecond samples", got)
	}
	if count, sum := histValue(t, e, "_count", ""), histValue(t, e, "_sum", ""); count != 2 || sum != 0 {
		t.Fatalf("count %g sum %g, want 2 and 0", count, sum)
	}
	if n := bucketLines(e); n != 2 {
		t.Fatalf("%d bucket lines, want le=0 and +Inf only", n)
	}
}

func TestHistogramNegativeDurationClamps(t *testing.T) {
	r, h := newHistRegistry()
	// Before the clamp this wrapped to a huge uint64, bits.Len64 = 64,
	// and indexed out of the 64-bucket array.
	h.Observe(-time.Second)
	e := mustScrape(t, r)
	if b0, count, sum := histValue(t, e, "_bucket", "0"), histValue(t, e, "_count", ""), histValue(t, e, "_sum", ""); b0 != 1 || count != 1 || sum != 0 {
		t.Fatalf("negative duration not clamped to bucket 0: le=0 %g, count %g, sum %g", b0, count, sum)
	}
}

func TestHistogramTopBucketSaturates(t *testing.T) {
	r, h := newHistRegistry()
	// The largest representable duration (~292 years) must land in its
	// log2 bucket without indexing out of the array; the explicit clamp
	// to bucket 63 is defensive headroom beyond what time.Duration can
	// express.
	huge := time.Duration(math.MaxInt64)
	h.Observe(huge)
	want := bits.Len64(uint64(huge.Microseconds()))
	e := mustScrape(t, r)
	if below, at := histValue(t, e, "_bucket", le(want-1)), histValue(t, e, "_bucket", le(want)); below != 0 || at != 1 {
		t.Fatalf("huge duration missed bucket %d: le=%s %g, le=%s %g", want, le(want-1), below, le(want), at)
	}
	if count, sum := histValue(t, e, "_count", ""), histValue(t, e, "_sum", ""); count != 1 || sum <= 0 {
		t.Fatalf("saturated histogram implausible: count %g sum %g", count, sum)
	}
}

func TestHistogramQuantileUpperBounds(t *testing.T) {
	r, h := newHistRegistry()
	// 90 samples at ~1ms, 10 at ~100ms: the p50 sample sits in the 1ms
	// bucket and the p99 sample in the 100ms bucket, so a quantile read
	// off the buckets is that bucket's upper bound.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	e := mustScrape(t, r)
	for _, c := range []struct {
		le   string
		want float64
	}{
		// 1000 µs lands in bucket 10 ([512, 1024)), upper bound 1023 µs.
		{"0.000511", 0},
		{"0.001023", 90},
		// 100000 µs lands in bucket 17 ([65536, 131072)), upper bound 131071 µs.
		{"0.065535", 90},
		{"0.131071", 100},
		{"+Inf", 100},
	} {
		if got := histValue(t, e, "_bucket", c.le); got != c.want {
			t.Fatalf("le=%s bucket = %g, want %g", c.le, got, c.want)
		}
	}
	count, sum := histValue(t, e, "_count", ""), histValue(t, e, "_sum", "")
	if count != 100 {
		t.Fatalf("count = %g", count)
	}
	if mean := sum / count; mean < 0.010 || mean > 0.012 {
		t.Fatalf("mean = %gs, want ~0.0109", mean)
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	r, h := newHistRegistry()
	const (
		writers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader: -race plus the exposition invariants
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := scrape(r); err != nil {
				t.Errorf("torn exposition: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if got := histValue(t, mustScrape(t, r), "_count", ""); got != writers*perG {
		t.Fatalf("count = %g, want %d", got, writers*perG)
	}
}
