// Command perfbench is the repository benchmark. It builds nothing
// itself (run.sh builds it with cfserve and cfgate), starts the servers,
// drives one named workload through a paced open-loop phase and a
// closed-loop phase from this one process, checks every response, and
// prints the end-to-end metrics. With -trace 1 it instead runs the
// workload untraced and then traced with the same seed, replays every
// instance in-process with a span around each layer's calls, and prints
// the per-layer metrics. README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload reduce-fresh --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"pslocal/internal/loadgen"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory with the cfserve and cfgate binaries
	work     string // scratch directory for logs, job stores and spans
	smoke    bool
}

// Shares of a run's seconds: the open-loop phase is planned to last
// openShare of them and the closed-loop phase may use closedShare.
const (
	openShare   = 0.8
	closedShare = 0.2
	// setupRuns is how many times a run sets up; setup_s is the median.
	setupRuns = 5
	// lagBoundMS is the validity bound on client.lag_p99_ms: a generator
	// later than this at the 99th percentile did not hold the schedule.
	lagBoundMS = 50.0
	// hopProbe and jobsProbe size the traced run's side passes.
	hopProbe  = 200
	jobsProbe = 40
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all to run each in turn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding cfserve and cfgate")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny run that checks the pipeline end to end in seconds")
	flag.Parse()
	o.trace = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		o.workload = name
		fmt.Printf("== workload %s, seed %d\n", name, o.seed)
		rep, err := run(ctx, o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = 1
		}
		if rep != nil {
			out, _ := json.Marshal(rep) // plain maps and numbers always marshal
			fmt.Println(string(out))
			if !rep.Correct {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// The metric names BENCHMARK.json lists: a run without -trace reports
// exactly endToEnd, a traced run exactly perLayer. Figures outside both
// lists are printed but not reported; README.md gives each one's
// measured spread between runs.
var (
	endToEnd = []string{"colors_per_reduce", "is_size_per_maxis", "peak_rss_mb", "setup_s"}
	perLayer = []string{"client.lag_p99_ms", "client.overhead_p50_ms", "cluster.hop_p50_ms",
		"cluster.affinity_hit_ratio", "cluster.backend_skew", "solver.cache_hit_ratio",
		"engine.gate_wait_p99_ms", "jobs.queue_wait_p50_ms", "jobs.run_p50_ms", "obs.trace_overhead_pct",
		"solver.key_us", "graphio.parse_ms.edgelist", "graphio.parse_ms.json", "graphio.write_result_ms",
		"core.index_ms", "core.csr_build_ms", "core.firstfit_ms", "core.recolor_ms", "maxis.oracle_ms",
		"verify.reduce_ms", "core.gk_edges", "core.phases"}
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's state.
type bench struct {
	o     options
	w     workload
	out   io.Writer
	conns int
	dir   string
	rep   *report
}

func run(ctx context.Context, o options, out io.Writer) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	for _, b := range []string{"cfserve", "cfgate"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("server binary: %w", err)
		}
	}
	b := &bench{o: o, w: w, out: out, conns: runtime.NumCPU(),
		dir: filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.Name, o.seed, os.Getpid())),
		rep: &report{Correct: true, Metrics: map[string]metric{}}}
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		b.rep.Correct = false
		return b.rep, err
	}
	if b.rep.Correct {
		_ = os.RemoveAll(b.dir) // logs stay behind only when something failed
	}
	return b.rep, nil
}

// put prints a figure with its unit, and reports it when the run's
// metric list names it.
func (b *bench) put(name string, v float64, unit, note string) {
	names := endToEnd
	if b.o.trace {
		names = perLayer
	}
	if slices.Contains(names, name) {
		b.rep.Metrics[name] = metric{Value: v, Unit: unit}
	} else {
		note = strings.TrimPrefix(note+"; printed only", "; ")
	}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(b.out, "%-28s %12.4f %s%s\n", name, v, unit, note)
}

// openRequests is how many requests the open-loop phase schedules.
func (b *bench) openRequests() int {
	return max(int(b.w.Rate*b.o.seconds*openShare), 1)
}

// setup starts a fleet, encodes every body of plan (and of the warm-up
// plan) and sends the warm-up, returning the fleet and the bodies.
func (b *bench) setup(ctx context.Context, nodes int, label string, traced bool) (*fleet, []request, error) {
	plan, err := b.w.plan(b.o.seed, b.openRequests())
	if err != nil {
		return nil, nil, err
	}
	warmPlan, err := b.w.plan(^b.o.seed, max(b.w.Warmup, 1))
	if err != nil {
		return nil, nil, err
	}
	f, err := startFleet(ctx, fleetConfig{bin: b.o.bin, dir: b.dir, nodes: nodes})
	if err != nil {
		return nil, nil, err
	}
	reqs, err := prepare(plan, label, traced)
	if err == nil {
		var warm []request
		if warm, err = prepare(warmPlan, label+"-warm", false); err == nil {
			err = warmup(ctx, f.entry, warm, b.conns)
		}
	}
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	return f, reqs, nil
}

// warmup sends the warm-up requests once, each as soon as a connection
// is free, and waits for their jobs; every one must succeed.
func warmup(ctx context.Context, base string, reqs []request, conns int) error {
	var ids []string
	for i := range reqs {
		reqs[i].Due = 0
	}
	for i, r := range openLoop(ctx, base, reqs, conns, "warm", 0) {
		if r.Err != nil || r.Status/100 != 2 {
			return fmt.Errorf("warm-up request %d failed: status %d %v", i, r.Status, r.Err)
		}
		if id, state := submitted(r.Body); id != "" && !terminal(state) {
			ids = append(ids, id)
		}
	}
	c := newClient()
	defer c.CloseIdleConnections()
	return awaitJobs(ctx, c, base, ids)
}

// label tags the jobs one pass submits.
func (b *bench) label(pass string) string {
	return fmt.Sprintf("pb-%s-%d-%s", b.w.Name, b.o.seed, pass)
}

// phaseLine prints the sent/succeeded/failed counts of one phase.
func (b *bench) phaseLine(name string, outs []outcome, extra string) (failed int) {
	for _, o := range outs {
		if !o.OK {
			failed++
		}
	}
	fmt.Fprintf(b.out, "phase %-8s sent %6d  succeeded %6d  failed %4d%s\n", name, len(outs), len(outs)-failed, failed, extra)
	for _, o := range outs {
		if !o.OK {
			fmt.Fprintf(b.out, "  first failure: %v\n", o.Err)
			break
		}
	}
	return failed
}

// untraced is the end-to-end run: setup (median of setupRuns), the
// open-loop phase, the closed-loop phase, then every check.
func (b *bench) untraced(ctx context.Context) error {
	var (
		f      *fleet
		reqs   []request
		setups []float64
		err    error
	)
	runs := setupRuns
	if b.o.smoke {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if f, reqs, err = b.setup(ctx, b.w.Nodes, b.label("open"), false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < runs-1 {
			f.stop()
		}
	}
	defer f.stop()
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return err
	}
	open := openLoop(ctx, f.entry, reqs, b.conns, "open", b.o.seed)
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return err
	}
	closed, err := closedLoop(ctx, f.entry, reqs, b.conns, time.Duration(b.o.seconds*closedShare*float64(time.Second)), "closed", b.o.seed)
	if err != nil {
		return err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	in := instances{}
	openOuts, err := checkAll(ctx, f.entry, in, reqs, open)
	if err != nil {
		return err
	}
	closedOuts, err := checkAll(ctx, f.entry, in, closed.Reqs, closed.Results)
	if err != nil {
		return err
	}
	f.stop()

	lag := make([]float64, len(open))
	for i, r := range open {
		lag[i] = ms(r.Lag)
	}
	lagQ, lagErr := b.tail(lag, 0.99, "client.lag_p99_ms")
	failed := b.phaseLine("open", openOuts, fmt.Sprintf("  client.lag_p99_ms %.3f", lagQ.Value))
	closedFailed := b.phaseLine("closed", closedOuts, fmt.Sprintf("  in %.3f s", closed.Elapsed.Seconds()))
	b.rep.Attempted = len(openOuts) + len(closedOuts)
	b.rep.Failed = failed + closedFailed
	b.rep.Correct = b.rep.Failed == 0
	fmt.Fprintf(b.out, "error_ratio %.6f (%d of %d attempted)\n",
		float64(b.rep.Failed)/float64(b.rep.Attempted), b.rep.Failed, b.rep.Attempted)

	b.latencyMetrics(reqs, open, openOuts)
	b.put("closed_rps", float64(len(closedOuts)-closedFailed)/closed.Elapsed.Seconds(), "1/s",
		fmt.Sprintf("%d callers", b.conns))
	b.put("cpu_ms_per_request", (cpu1-cpu0)*1000/float64(len(open)), "ms",
		"server CPU over the open phase")
	b.qualityMetrics(reqs, openOuts)
	b.put("peak_rss_mb", rss, "MB", "sum of server VmHWM")
	b.put("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	if lagErr != nil {
		return lagErr
	}
	if lagQ.Value > lagBoundMS {
		return fmt.Errorf("client.lag_p99_ms %.3f exceeds its %.1f ms bound: the run is invalid", lagQ.Value, lagBoundMS)
	}
	return nil
}

// tail is percentile, except that a smoke run reports an unsupported
// tail instead of failing on it.
func (b *bench) tail(xs []float64, q float64, name string) (quantile, error) {
	v, err := percentile(xs, q)
	if err != nil && b.o.smoke {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		if len(s) > 0 {
			v.Value = s[len(s)-1]
		}
		return v, nil
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return v, err
}

// latencyMetrics prints the open-loop latency figures, per class and
// overall, and SLO attainment. Latency runs from each request's
// scheduled send to the end of reading its response body.
func (b *bench) latencyMetrics(reqs []request, res []result, outs []outcome) {
	var all, small []float64
	byClass := map[string][]float64{}
	met := map[string]int{}
	for i, o := range outs {
		if !o.OK {
			continue
		}
		l, class := ms(res[i].Latency), reqs[i].Rec.Class
		all = append(all, l)
		if !b.w.Large[class] {
			small = append(small, l)
		}
		byClass[class] = append(byClass[class], l)
		if l <= reqs[i].Rec.SLOMillis {
			met[class]++
		}
	}
	attained := 0
	for _, c := range b.w.Classes {
		fmt.Fprintf(b.out, "class %-14s n %5d  p50 %8.3f ms  limit %5.0f ms  attained %5d\n",
			c.Name, len(byClass[c.Name]), median(byClass[c.Name]), c.SLOMillis, met[c.Name])
		attained += met[c.Name]
	}
	b.put("latency_p50_ms", median(all), "ms", fmt.Sprintf("n=%d", len(all)))
	b.showTail("latency_p99_ms", all)
	b.showTail("small_p99_ms", small)
	b.put("slo_attained_ratio", float64(attained)/float64(len(outs)), "ratio", fmt.Sprintf("%d of %d", attained, len(outs)))
}

// showTail prints a p99, which is not a BENCHMARK.json metric, or the
// highest percentile the sample supports when it is too small for one.
func (b *bench) showTail(name string, xs []float64) {
	q, err := percentile(xs, 0.99)
	if err == nil {
		fmt.Fprintf(b.out, "%-28s %12.4f ms  (n=%d; printed only)\n", name, q.Value, q.N)
		return
	}
	if len(xs) <= minBeyond {
		fmt.Fprintf(b.out, "%-28s unsupported: n=%d\n", name, len(xs))
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := len(s) - minBeyond
	fmt.Fprintf(b.out, "%-28s unsupported: n=%d; p%.1f = %.4f ms\n", name, len(s),
		100*float64(rank)/float64(len(s)), s[rank-1])
}

// qualityMetrics reports the solution-quality means over the open phase.
// Every MaxIS oracle call counts toward is_size_per_maxis: one per
// /v1/maxis response and one per reduction phase, which runs the oracle
// on G_k.
func (b *bench) qualityMetrics(reqs []request, outs []outcome) {
	var colors, sizes []float64
	for i, o := range outs {
		if !o.OK {
			continue
		}
		switch reqs[i].Rec.Endpoint {
		case loadgen.EndpointReduce:
			colors = append(colors, float64(o.Result.TotalColors))
			for _, p := range o.Result.Phases {
				sizes = append(sizes, float64(p.ISSize))
			}
		case loadgen.EndpointMaxIS:
			sizes = append(sizes, float64(len(o.Set)))
		}
	}
	b.put("colors_per_reduce", mean(colors), "colors", fmt.Sprintf("%d reduces", len(colors)))
	b.put("is_size_per_maxis", mean(sizes), "vertices", fmt.Sprintf("%d oracle calls", len(sizes)))
}
