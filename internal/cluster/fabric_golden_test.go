package cluster_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestFabricFigureBytesIdentical is the cluster golden test (the issue's
// acceptance bar): the Fig. 12 sweep — 80 quad-core runs — with every run
// round-robined across a 3-node fabric must render byte-identically to the
// direct single-process path. Routing, cross-node coalescing, result
// fetch, and stolen-job returns all sit between the submission and the
// table; the bytes must not care.
func TestFabricFigureBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("80-run sweep ×2 paths; skipped in -short")
	}
	fault.DisableAll()
	opts := figures.DefaultOptions()
	opts.InstrPerCore = 1200
	opts.Parallel = 4

	direct, err := figures.NewSuite(opts).Fig12()
	if err != nil {
		t.Fatal(err)
	}

	f := newFabric(t, 3, func(int) service.Config {
		return service.Config{Workers: 4, QueueCap: 1024}
	})
	var rr atomic.Uint64
	sopts := opts
	sopts.Runner = func(cfg sim.Config) (*sim.Result, error) {
		n := f.Nodes[int(rr.Add(1))%len(f.Nodes)]
		return n.Run(context.Background(), "golden", cfg)
	}
	served, err := figures.NewSuite(sopts).Fig12()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := served.String(), direct.String(); got != want {
		t.Fatalf("fabric table differs from direct run:\n--- direct ---\n%s\n--- fabric ---\n%s", want, got)
	}

	// The fabric must actually have fabric'd: round-robin entry means ~2/3
	// of submissions hit a non-owner and were forwarded.
	var forwarded, received cluster.Counters
	for _, n := range f.Nodes {
		c := n.Counters()
		forwarded.Forwarded += c.Forwarded
		received.Received += c.Received
	}
	if forwarded.Forwarded == 0 || received.Received == 0 {
		t.Fatalf("sweep never exercised routing (forwarded=%d received=%d)", forwarded.Forwarded, received.Received)
	}
	for i, n := range f.Nodes {
		st := n.Service().Stats()
		if st.Failed != 0 {
			t.Fatalf("node%d failed %d jobs during the sweep", i, st.Failed)
		}
	}
	// Dedup held cluster-wide: executions ≤ distinct configs (80).
	if got := sumExecuted(f); got == 0 || got > 80 {
		t.Fatalf("fabric executed %d runs for an 80-config sweep", got)
	}
}
