package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait returned
}

// fleet is the set of server processes one measurement runs against:
// cfserve nodes, plus a cfgate in front when there is more than one node
// (or beside a single node, for the traced run's hop probe).
type fleet struct {
	nodes []*proc
	gate  *proc
	entry string // base URL the load goes to
}

// fleetConfig says what to start.
type fleetConfig struct {
	bin   string // directory holding the cfserve and cfgate binaries
	dir   string // scratch directory for logs and the shared job store
	nodes int
}

// Every server runs with GOMAXPROCS=1, so a node admits one solve at a
// time and queues the rest at its gate, and no idle P spins for work and
// adds CPU time that varies from run to run. Every server also runs at a
// lower CPU priority than the generator: a generator starved by the
// servers it loads would send late and read responses late, and book its
// own delay as theirs.
const (
	serverProcs = "GOMAXPROCS=1"
	serverNice  = "10"
)

// startFleet launches the processes and waits until every /readyz
// answers OK (and cfgate sees every node healthy). On error every
// started process is stopped.
func startFleet(ctx context.Context, c fleetConfig) (*fleet, error) {
	f := &fleet{}
	if err := f.start(ctx, c); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(ctx context.Context, c fleetConfig) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	jobsDir := ""
	if c.nodes > 1 {
		// A fresh store per fleet: a later fleet must not adopt, and so
		// dedupe onto, the jobs an earlier one ran.
		var err error
		if jobsDir, err = os.MkdirTemp(c.dir, "jobs-"); err != nil {
			return err
		}
	}
	for i := 0; i < c.nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		args := []string{"-addr", addr, "-drain-grace", "0", "-drain-timeout", "2s", "-slow-ms", "0"}
		if jobsDir != "" {
			args = append(args, "-jobs-dir", jobsDir)
		}
		p, err := launch(c, fmt.Sprintf("cfserve%d", i+1), "cfserve", addr, args)
		if err != nil {
			return err
		}
		f.nodes = append(f.nodes, p)
	}
	f.entry = f.nodes[0].url
	if c.nodes > 1 {
		if err := f.addGate(ctx, c); err != nil {
			return err
		}
		f.entry = f.gate.url
	}
	return f.waitReady(ctx, 30*time.Second)
}

// addGate starts a cfgate (affinity policy) over the nodes and waits
// until it sees every node healthy. It does not move the entry.
func (f *fleet) addGate(ctx context.Context, c fleetConfig) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	urls := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		urls[i] = n.url
	}
	args := []string{"-addr", addr, "-backends", strings.Join(urls, ","), "-policy", "affinity",
		"-slow-ms", "0", "-probe-interval", "50ms"}
	if f.gate, err = launch(c, "cfgate", "cfgate", addr, args); err != nil {
		return err
	}
	return f.waitReady(ctx, 30*time.Second)
}

// launch starts one binary with its stderr in a log file. The child is
// killed if the benchmark dies first.
func launch(c fleetConfig, name, binary, addr string, args []string) (*proc, error) {
	logf, err := os.Create(filepath.Join(c.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command("nice", append([]string{"-n", serverNice, filepath.Join(c.bin, binary)}, args...)...)
	cmd.Env = append(os.Environ(), serverProcs)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once we stop it
		close(p.done)
	}()
	return p, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls every /readyz until it answers 200; the gateway must
// also report all nodes healthy.
func (f *fleet) waitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for _, p := range f.procs() {
		for {
			ok, err := ready(ctx, client, p, len(f.nodes))
			if ok {
				break
			}
			select {
			case <-p.done:
				return fmt.Errorf("%s exited before it was ready (see %s.log)", p.name, p.name)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v: %v", p.name, timeout, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

func ready(ctx context.Context, client *http.Client, p *proc, nodes int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if p.name != "cfgate" {
		return true, nil
	}
	var doc struct {
		Healthy int `json:"healthy_backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return false, err
	}
	if doc.Healthy != nodes {
		return false, fmt.Errorf("%d of %d backends healthy", doc.Healthy, nodes)
	}
	return true, nil
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.nodes...)
	if f.gate != nil {
		ps = append(ps, f.gate)
	}
	return ps
}

// serving lists the nodes, and the gateway when the load goes through it.
func (f *fleet) serving() []*proc {
	if f.gate != nil && f.entry == f.gate.url {
		return f.procs()
	}
	return f.nodes
}

// peakRSSMB sums VmHWM, the peak resident set, over the processes that
// serve the load: the nodes, and the gateway when it is on the path.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.serving() {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += kb / 1024
	}
	return total, nil
}

func vmHWM(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// stop terminates every process and waits for each to end: SIGTERM
// first (the nodes drain with no grace), SIGKILL after two seconds.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	ps := f.procs()
	for _, p := range ps {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	}
	for _, p := range ps {
		select {
		case <-p.done:
		case <-time.After(2 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	f.nodes, f.gate = nil, nil
}

// cpuSeconds sums user and system CPU time over the processes that serve
// the load (as peakRSSMB picks them). The kernel charges time stolen by
// the hypervisor to no process, so this is steadier on a shared host
// than any wall-clock figure.
func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range f.serving() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th fields of the whole line.
		rest := string(data)
		rest = rest[strings.LastIndexByte(rest, ')')+1:]
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return 0, fmt.Errorf("%s: short /proc stat line", p.name)
		}
		for _, fv := range fields[11:13] {
			ticks, err := strconv.ParseFloat(fv, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", p.name, err)
			}
			total += ticks / clockTicks
		}
	}
	return total, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100
