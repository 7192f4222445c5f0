package main

import (
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end, untraced and traced, in the
// smoke mode that finishes in seconds: real cfserve and cfgate
// processes, every response checked, the replay compared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "pslocal/cmd/cfserve", "pslocal/cmd/cfgate")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			rep, err := run(context.Background(), options{workload: w.Name, seed: 7, seconds: 2, trace: traced,
				bin: bin, work: filepath.Join(t.TempDir(), "work"), smoke: true}, io.MultiWriter(&out, testOutput()))
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %+v", w.Name, traced, rep)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := rep.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want exactly %d", w.Name, traced, len(rep.Metrics), len(want))
			}
		}
	}
}

// testOutput shows the benchmark's lines under go test -v.
func testOutput() io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}
