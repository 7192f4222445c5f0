package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pslocal/internal/loadgen"
)

func reqsFor(endpoint string, n int, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Rec: loadgen.Record{Endpoint: endpoint}, Query: "/v1/" + endpoint,
			Due: time.Duration(i) * gap, Body: []byte("x")}
	}
	return reqs
}

// The closed-loop clock runs until every job the phase submitted is
// terminal, not just until the last submit answered.
func TestClosedLoopWaitsForJobs(t *testing.T) {
	const jobTime = 150 * time.Millisecond
	var mu sync.Mutex
	doneAt := map[string]time.Time{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Method == http.MethodPost {
			id := fmt.Sprintf("job%d", len(doneAt))
			doneAt[id] = time.Now().Add(jobTime)
			fmt.Fprintf(w, `{"job":{"id":%q,"state":"queued"}}`, id)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		state := "running"
		if time.Now().After(doneAt[id]) {
			state = "done"
		}
		fmt.Fprintf(w, `{"job":{"id":%q,"state":%q}}`, id, state)
	}))
	defer srv.Close()

	start := time.Now()
	cr, err := closedLoop(context.Background(), srv.URL, reqsFor(loadgen.EndpointJobs, 4, 0), 2, 20*time.Millisecond, "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) == 0 || len(cr.Results) != len(cr.Reqs) {
		t.Fatalf("%d results for %d requests", len(cr.Results), len(cr.Reqs))
	}
	if cr.Elapsed < jobTime {
		t.Errorf("clock stopped after %v, before the jobs finished (%v)", cr.Elapsed, jobTime)
	}
	if cr.Elapsed > time.Since(start) {
		t.Errorf("elapsed %v exceeds wall time", cr.Elapsed)
	}
}

// The closed loop replays the list round after round and stops taking
// new requests once its budget is spent.
func TestClosedLoopStopsAtBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	cr, err := closedLoop(context.Background(), srv.URL, reqsFor(loadgen.EndpointReduce, 3, 0), 2, 100*time.Millisecond, "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cr.Results); n < 6 || n > 20 {
		t.Errorf("%d requests attempted in a 100ms budget at 20ms each over 2 callers", n)
	}
	for i, r := range cr.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("result %d: status %d %v", i, r.Status, r.Err)
		}
	}
}

// Open-loop latency runs from the scheduled send: three requests due at
// once over one connection to a 30ms server read about 30, 60 and 90ms,
// where timing from the actual send would read 30ms each.
func TestOpenLoopCountsClientQueueing(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	res := openLoop(context.Background(), srv.URL, reqsFor(loadgen.EndpointReduce, 3, 0), 1, "t", 1)
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if want := time.Duration(i+1) * service; r.Latency < want {
			t.Errorf("request %d: latency %v, want at least %v", i, r.Latency, want)
		}
		if r.Wire >= 2*service {
			t.Errorf("request %d: wire time %v includes queueing", i, r.Wire)
		}
	}
}

// Sends leave on schedule: no send is late by the gap between sends.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) }))
	defer srv.Close()
	res := openLoop(context.Background(), srv.URL, reqsFor(loadgen.EndpointReduce, 20, 25*time.Millisecond), 2, "t", 1)
	for i, r := range res {
		if r.Lag < 0 || r.Lag > 20*time.Millisecond {
			t.Errorf("request %d left %v late", i, r.Lag)
		}
	}
}
