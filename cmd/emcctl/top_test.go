package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRenderTopNodeTable: cluster-mode frames grow a NODE table with one
// row per fabric member, heartbeat age included.
func TestRenderTopNodeTable(t *testing.T) {
	f := &service.StatsFrame{
		Time: time.Now(),
		Stats: service.Stats{
			Nodes: []service.NodeStat{
				{Node: "node0", State: "self", Queued: 1, Forwarded: 3, ReplTorn: 2},
				{Node: "node1", State: "alive", HeartbeatAgeMS: 12},
				{Node: "node2", State: "dead", HeartbeatAgeMS: -1},
			},
		},
	}
	out := renderTop(f, newEtaTracker())
	for _, want := range []string{"NODE", "node0", "self", "12ms", "never", "dead"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered frame missing %q:\n%s", want, out)
		}
	}
	// The self row's counters land in their columns: QUEUED RUNNING HUNG
	// FWD TORN, then BEAT ("-": the self row has no heartbeat to age).
	var self string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "node0 ") {
			self = line
		}
	}
	if got, want := strings.Join(strings.Fields(self), " "), "node0 self 1 0 0 3 2 -"; got != want {
		t.Fatalf("self row %q, want %q:\n%s", got, want, out)
	}
	// Single-process frames stay free of the table.
	plain := renderTop(&service.StatsFrame{Time: time.Now()}, newEtaTracker())
	if strings.Contains(plain, "NODE") {
		t.Fatalf("non-cluster frame grew a NODE table:\n%s", plain)
	}
}

// TestTopReconnectsDroppedStream: a stream that dies mid-session is redialed
// with the remaining frame budget until the requested frames arrive.
func TestTopReconnectsDroppedStream(t *testing.T) {
	var dials atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/stats/stream" {
			http.NotFound(w, r)
			return
		}
		dials.Add(1)
		// Serve exactly one frame regardless of the requested budget, then
		// drop the connection — the client must reconnect for the rest.
		frame, _ := json.Marshal(service.StatsFrame{Time: time.Now()})
		w.Write(frame)
		fmt.Fprintln(w)
		w.(http.Flusher).Flush()
	}))
	defer srv.Close()

	c := &client{base: srv.URL, http: srv.Client(), retries: 4, retryBase: time.Millisecond}
	// Silence the dashboard output.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.top([]string{"-frames", "3", "-interval", "10ms", "-plain"})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("top never finished its frame budget")
	}
	os.Stdout = old
	devnull.Close()

	if got := dials.Load(); got != 3 {
		t.Fatalf("stream dialed %d times, want 3 (one per surviving frame)", got)
	}
}
