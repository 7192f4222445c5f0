package obs

// expo_test.go covers the exposition reader: the registry's own output
// parses back to the values it rendered (escaped label values included),
// and each malformed input the validator exists to catch is rejected
// with an error naming the problem.

import (
	"strings"
	"testing"
	"time"
)

func TestParseExpositionReadsRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_requests_total", "Requests.").Add(42)
	r.Counter("rt_solves_total", "Solves.", L("endpoint", "reduce")).Add(3)
	r.Gauge("rt_inflight", "In flight.").Set(2.5)
	odd := `a"b\c` + "\n"
	r.GaugeFunc("rt_escaped", "Escaped label.", func() float64 { return 7 }, L("path", odd))
	h := r.Histogram("rt_latency_seconds", "Latency.", L("track", "reduce"))
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)

	e := mustScrape(t, r)
	for _, c := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"rt_requests_total", nil, 42},
		{"rt_solves_total", []Label{L("endpoint", "reduce")}, 3},
		{"rt_inflight", nil, 2.5},
		{"rt_escaped", []Label{L("path", odd)}, 7},
		{"rt_latency_seconds_count", []Label{L("track", "reduce")}, 2},
		{"rt_latency_seconds_bucket", []Label{L("track", "reduce"), L("le", "+Inf")}, 2},
	} {
		if got, ok := e.Value(c.name, c.labels...); !ok || got != c.want {
			t.Errorf("%s%v = %g (present %t), want %g", c.name, c.labels, got, ok, c.want)
		}
	}
	if _, ok := e.Value("rt_solves_total"); ok {
		t.Error("Value matched a labeled series without its labels")
	}
	if _, ok := e.Value("rt_missing_total"); ok {
		t.Error("Value found a series the exposition does not have")
	}
	for _, fam := range []string{"rt_requests_total", "rt_latency_seconds"} {
		if !e.Families[fam] {
			t.Errorf("family %s not recorded", fam)
		}
	}
	if e.Families["rt_latency_seconds_bucket"] {
		t.Error("histogram suffix recorded as its own family")
	}
	if e.Histograms != 1 {
		t.Errorf("histogram series = %d, want 1", e.Histograms)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	const histHead = "# TYPE h_seconds histogram\n"
	for _, c := range []struct {
		name, input, want string
	}{
		{"empty input", "", "no samples"},
		{"duplicate series", "# TYPE c_total counter\nc_total{a=\"1\"} 1\nc_total{a=\"1\"} 2\n", "duplicate series"},
		{"non-cumulative histogram", histHead +
			"h_seconds_bucket{le=\"0.1\"} 5\nh_seconds_bucket{le=\"0.2\"} 3\nh_seconds_bucket{le=\"+Inf\"} 5\nh_seconds_count 5\n",
			"not cumulative"},
		{"+Inf differs from _count", histHead +
			"h_seconds_bucket{le=\"0.1\"} 2\nh_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_count 3\n",
			"+Inf bucket 2 != _count 3"},
		{"missing +Inf bucket", histHead + "h_seconds_bucket{le=\"0.1\"} 2\nh_seconds_count 2\n", "missing its +Inf"},
		{"bucket without le", histHead + "h_seconds_bucket 2\n", "without an le label"},
		{"bad metric name", "# TYPE c_total counter\n1c_total 1\n", "invalid metric name"},
		{"bad TYPE name", "# TYPE 1c counter\n", "malformed TYPE"},
		{"bad label name", "# TYPE c_total counter\nc_total{1a=\"v\"} 1\n", "invalid label name"},
		{"colon in label name", "# TYPE c_total counter\nc_total{a:b=\"v\"} 1\n", "invalid label name"},
		{"bad label escape", "# TYPE c_total counter\nc_total{a=\"x\\qy\"} 1\n", "bad escape"},
		{"dangling label escape", "# TYPE c_total counter\nc_total{a=\"x\\} 1\n", "dangling escape"},
		{"unterminated label value", "# TYPE c_total counter\nc_total{a=\"x} 1\n", "unterminated label value"},
		{"unquoted label value", "# TYPE c_total counter\nc_total{a=x} 1\n", "not quoted"},
		{"duplicate label", "# TYPE c_total counter\nc_total{a=\"1\",a=\"2\"} 1\n", "duplicate label"},
		{"bad value", "# TYPE c_total counter\nc_total one\n", "bad sample value"},
		{"sample without TYPE", "c_total 1\n", "no preceding TYPE"},
		{"negative counter", "# TYPE c_total counter\nc_total -1\n", "negative counter"},
		{"le on a counter", "# TYPE c_total counter\nc_total{le=\"1\"} 1\n", "le label on non-histogram"},
		{"second HELP", "# HELP g x\n# HELP g y\n# TYPE g gauge\ng 1\n", "second HELP"},
		{"re-typed family", "# TYPE g gauge\n# TYPE g counter\ng 1\n", "re-typed"},
		{"unknown TYPE", "# TYPE g meter\ng 1\n", "unknown TYPE"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseExposition(strings.NewReader(c.input))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}
