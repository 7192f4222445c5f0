package obs

// expo.go is the reader side of the exposition: it parses Prometheus
// text format 0.0.4 and validates HELP/TYPE syntax, sample lines,
// duplicate series and the histogram invariants (cumulative buckets
// non-decreasing in le, the +Inf bucket equal to _count). It is the one
// reader of GET /metrics: scripts/metricscheck validates live
// expositions with it, and cfload and the tests read values through it.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed and validated exposition.
type Exposition struct {
	// Samples holds the sample lines in input order.
	Samples []Sample
	// Families holds every family a sample appeared under (histogram
	// samples count under the histogram's name, not their suffix).
	Families map[string]bool
	// Histograms counts the histogram series (label sets without le).
	Histograms int

	index map[string]int // series key -> position in Samples
}

// Value returns the sample of the series name{labels}. ok is false when
// the exposition has no such series.
func (e *Exposition) Value(name string, labels ...Label) (v float64, ok bool) {
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	i, ok := e.index[seriesKey(name, m)]
	if !ok {
		return 0, false
	}
	return e.Samples[i].Value, true
}

// parseLabels parses the `k="v",...` interior of a label block,
// honouring the \\, \" and \n escapes.
func parseLabels(s string, line int) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("line %d: label block %q: missing '='", line, s)
		}
		key := s[i : i+eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("line %d: invalid label name %q", line, key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("line %d: label %q value is not quoted", line, key)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("line %d: dangling escape in label %q", line, key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("line %d: bad escape \\%c in label %q", line, s[i+1], key)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("line %d: unterminated label value for %q", line, key)
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate label %q", line, key)
		}
		labels[key] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("line %d: expected ',' between labels, got %q", line, s[i:])
			}
			i++
		}
	}
	return labels, nil
}

// parseSample parses one non-comment line.
func parseSample(text string, line int) (Sample, error) {
	var s Sample
	rest := text
	if brace := strings.IndexByte(text, '{'); brace >= 0 {
		s.Name = text[:brace]
		end := strings.LastIndexByte(text, '}')
		if end < brace {
			return s, fmt.Errorf("line %d: unbalanced label braces", line)
		}
		var err error
		if s.Labels, err = parseLabels(text[brace+1:end], line); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(text[end+1:])
	} else {
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return s, fmt.Errorf("line %d: want 'name value', got %q", line, text)
		}
		s.Name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", line, s.Name)
	}
	// The value may be followed by an optional timestamp; take field one.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("line %d: want 'value [timestamp]' after the name, got %q", line, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("line %d: bad sample value %q", line, fields[0])
	}
	s.Value = v
	return s, nil
}

// seriesKey canonicalizes name + labels for duplicate detection and
// lookup.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// histogramBase splits a histogram sample name into its family name and
// suffix, or returns "" when the name carries no histogram suffix.
func histogramBase(name string) (base, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, sfx) {
			return strings.TrimSuffix(name, sfx), sfx
		}
	}
	return "", ""
}

// bucketSeries accumulates one histogram series' buckets for the
// cumulativity check.
type bucketSeries struct {
	les    []float64
	counts []float64
	count  float64 // the _count sample
	hasCnt bool
}

// ParseExposition reads an exposition and validates it; the error names
// the first offending line or series. An input with no samples is an
// error.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Families: make(map[string]bool), index: make(map[string]int)}
	types := make(map[string]string) // family -> TYPE
	helped := make(map[string]bool)  // family -> HELP seen
	lines := make(map[string]int)    // series key -> first line
	hists := make(map[string]*bucketSeries)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			if len(fields) < 3 || !validMetricName(fields[2]) {
				return nil, fmt.Errorf("line %d: malformed %s line: %q", line, fields[1], text)
			}
			name := fields[2]
			if fields[1] == "HELP" {
				if helped[name] {
					return nil, fmt.Errorf("line %d: second HELP for %s", line, name)
				}
				helped[name] = true
				continue
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: TYPE wants exactly 'TYPE name kind': %q", line, text)
			}
			kind := fields[3]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", line, kind, name)
			}
			if prev, ok := types[name]; ok && prev != kind {
				return nil, fmt.Errorf("line %d: %s re-typed from %s to %s", line, name, prev, kind)
			}
			types[name] = kind
			continue
		}
		s, err := parseSample(text, line)
		if err != nil {
			return nil, err
		}
		key := seriesKey(s.Name, s.Labels)
		if first, dup := lines[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s (first at line %d)", line, key, first)
		}
		lines[key] = line
		e.index[key] = len(e.Samples)
		e.Samples = append(e.Samples, s)

		family := s.Name
		if base, sfx := histogramBase(s.Name); base != "" && types[base] == "histogram" {
			family = base
			// Key the histogram series by its labels minus le.
			le, hasLE := s.Labels["le"]
			rest := make(map[string]string, len(s.Labels))
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			hkey := seriesKey(base, rest)
			hs := hists[hkey]
			if hs == nil {
				hs = &bucketSeries{}
				hists[hkey] = hs
			}
			switch sfx {
			case "_bucket":
				if !hasLE {
					return nil, fmt.Errorf("line %d: histogram bucket without an le label: %s", line, text)
				}
				bound, err := parseLE(le)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", line, err)
				}
				hs.les = append(hs.les, bound)
				hs.counts = append(hs.counts, s.Value)
			case "_count":
				hs.count = s.Value
				hs.hasCnt = true
			}
		} else if _, ok := s.Labels["le"]; ok && types[s.Name] != "histogram" {
			return nil, fmt.Errorf("line %d: le label on non-histogram series %s", line, s.Name)
		}
		e.Families[family] = true
		if t, ok := types[family]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding TYPE", line, s.Name)
		} else if t == "counter" && s.Value < 0 {
			return nil, fmt.Errorf("line %d: negative counter sample %s = %g", line, s.Name, s.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(e.Samples) == 0 {
		return nil, errors.New("no samples")
	}

	// Histogram invariants: a +Inf bucket per series, bucket counts
	// non-decreasing in le order, +Inf equal to _count.
	for hkey, hs := range hists {
		if len(hs.les) == 0 {
			return nil, fmt.Errorf("histogram %s has no buckets", hkey)
		}
		type pair struct{ le, n float64 }
		pairs := make([]pair, len(hs.les))
		for i := range hs.les {
			pairs[i] = pair{hs.les[i], hs.counts[i]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].le < pairs[j].le })
		last := pairs[len(pairs)-1]
		if !math.IsInf(last.le, 1) {
			return nil, fmt.Errorf("histogram %s is missing its +Inf bucket", hkey)
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i].n < pairs[i-1].n {
				return nil, fmt.Errorf("histogram %s buckets not cumulative: le=%g count %g < le=%g count %g",
					hkey, pairs[i].le, pairs[i].n, pairs[i-1].le, pairs[i-1].n)
			}
		}
		if hs.hasCnt && last.n != hs.count {
			return nil, fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", hkey, last.n, hs.count)
		}
	}
	e.Histograms = len(hists)
	return e, nil
}

// parseLE parses a bucket bound ("+Inf" or a float).
func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return v, nil
}
