// Self-healing layer tests: anti-entropy backfill, the failed-RPC-marks-dead
// fast path, and the any-RPC-resets-suspicion liveness rule. Failpoints are process-global, so no t.Parallel.
package cluster_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// armSite arms one failpoint by registry name.
func armSite(t *testing.T, name string, trig fault.Trigger) {
	t.Helper()
	p, ok := fault.Lookup(name)
	if !ok {
		t.Fatalf("failpoint %s not registered", name)
	}
	p.Enable(trig)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// peerRow finds the row for peer id in a node's Stats.Nodes.
func peerRow(n *cluster.Node, id string) (service.NodeStat, bool) {
	for _, row := range n.Service().Stats().Nodes {
		if row.Node == id {
			return row, true
		}
	}
	return service.NodeStat{}, false
}

// TestAntiEntropyBackfill: records computed on one node through its local
// service are never routed or fetched, so a peer that holds none of them
// converges to the full set through digest exchange and backfill alone,
// byte-identical to the source.
func TestAntiEntropyBackfill(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	opts := func(i int) cluster.Options {
		o := fastOpts(i)
		o.AntiEntropyInterval = 20 * time.Millisecond
		return o
	}
	f := newFabricOpts(t, 2, nil, opts)

	const jobs = 4
	keys := make([]string, 0, jobs)
	refs := make(map[string]uint64, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		cfg := tinyCfg(seed)
		key, _ := service.CacheKey(&cfg)
		keys = append(keys, key)
		refs[key] = runTiny(t, cfg).Hash()
		j, err := f.Nodes[0].Service().Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}

	waitFor(t, 10*time.Second, "anti-entropy convergence on node1", func() bool {
		for _, k := range keys {
			if _, ok := f.Nodes[1].Service().PeekResult(k); !ok {
				return false
			}
		}
		return true
	})
	for _, k := range keys {
		res, _ := f.Nodes[1].Service().PeekResult(k)
		if res.Hash() != refs[k] {
			t.Fatalf("backfilled record %s hash %x, want %x", k, res.Hash(), refs[k])
		}
	}
	if got := f.Nodes[1].Counters().Backfilled; got < jobs {
		t.Fatalf("node1 backfilled %d records, want >= %d", got, jobs)
	}
	if f.Nodes[1].Counters().ReplRecv != 0 {
		t.Fatal("a record arrived by push instead of anti-entropy — test premise broken")
	}
}

// TestUnreachablePeerRoutedAround: a peer that fails a forward is marked
// dead at once — long before the suspect sweep could fire — so the next
// key it owns is routed around without burning MaxHops, and it comes back
// to "alive" through the heartbeat probe once the partition heals.
func TestUnreachablePeerRoutedAround(t *testing.T) {
	fault.DisableAll()
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.SuspectAfter = time.Hour // only the failed-RPC fast path can mark it dead
		return o
	})
	var owned []sim.Config // two keys node1 owns
	for seed := uint64(1); len(owned) < 2 && seed < 4096; seed++ {
		cfg := tinyCfg(seed)
		if key, _ := service.CacheKey(&cfg); ownerOf(2, key) == "node1" {
			owned = append(owned, cfg)
		}
	}
	if len(owned) < 2 {
		t.Fatal("fewer than two seeds in [1,4096) hash to node1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The first forward into the partition fails, which marks node1 dead;
	// missed heartbeats alone would take the hour-long sweep.
	f.Transport.Partition("node0", "node1")
	if _, err := f.Nodes[0].Run(ctx, "t", owned[0]); err != nil {
		t.Fatal(err)
	}
	if row, ok := peerRow(f.Nodes[0], "node1"); !ok || row.State != "dead" {
		t.Fatalf("node1 row %+v after a failed forward, want dead", row)
	}

	// The next key node1 owns routes straight to local execution: the dead
	// owner is skipped by the ring predicate, no MaxHops timeout burn.
	before := f.Nodes[0].Counters()
	ref := runTiny(t, owned[1]).Hash()
	start := time.Now()
	res, err := f.Nodes[0].Run(ctx, "t", owned[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("routed-around result hash %x, want %x", res.Hash(), ref)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("routed-around execution took %v — routed into the dead peer?", elapsed)
	}
	after := f.Nodes[0].Counters()
	if lf := after.LocalFallback - before.LocalFallback; lf != 0 {
		t.Fatalf("local fallback used %d times — owner() should have resolved to self directly", lf)
	}
	if rd := after.Redispatched - before.Redispatched; rd != 0 {
		t.Fatalf("re-dispatched %d times — owner() should have skipped the dead peer", rd)
	}

	f.Transport.Heal("node0", "node1")
	waitFor(t, 10*time.Second, "node1 alive again on node0", func() bool {
		row, ok := peerRow(f.Nodes[0], "node1")
		return ok && row.State == "alive"
	})
}

// TestSuccessfulRPCResetsSuspectTimer: with every explicit heartbeat probe
// suppressed, a steady stream of successful routing RPCs alone keeps both
// peers out of the dead state — the regression test for "any successful
// RPC from a peer resets the suspect timer".
func TestSuccessfulRPCResetsSuspectTimer(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	armSite(t, fault.SiteClusterHeartbeat, fault.Trigger{}) // no probes at all

	// The suspect window must outlast one submit+wait iteration (which can
	// stretch well past 100ms under -race) but stay far below the run
	// length, so the sweep WOULD fire several times over without the
	// routing traffic crediting the peers.
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.SuspectAfter = 400 * time.Millisecond
		return o
	})

	// Each fresh submission at node0 of a key node1 owns is forwarded,
	// status-polled, and fetched: node0 credits node1 on every answered
	// RPC, node1 credits node0 on every received one — both suspect timers
	// keep resetting with not a single heartbeat flowing.
	deadline := time.Now().Add(2 * time.Second)
	for seed := uint64(1); time.Now().Before(deadline); seed++ {
		cfg := tinyCfg(seed)
		if key, _ := service.CacheKey(&cfg); ownerOf(2, key) != "node1" {
			continue
		}
		j, err := f.Nodes[0].Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		time.Sleep(10 * time.Millisecond)
	}

	if row, ok := peerRow(f.Nodes[0], "node1"); !ok || row.State != "alive" {
		t.Fatalf("node1 on node0: %+v — active routing did not keep it alive", row)
	}
	if row, ok := peerRow(f.Nodes[1], "node0"); !ok || row.State != "alive" {
		t.Fatalf("node0 on node1: %+v — inbound RPCs did not keep it alive", row)
	}
	if f.Nodes[0].Counters().Forwarded == 0 {
		t.Fatal("no forwards flowed — the liveness evidence premise is broken")
	}
}

// TestRestartBackfillsDurableCache: a killed node restarted with an empty
// cache converges to the survivor's durable record set via anti-entropy —
// the recover-and-backfill scenario at fabric scale.
func TestRestartBackfillsDurableCache(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)

	scfg := func(int) service.Config { return service.Config{Workers: 2, QueueCap: 64} }
	opts := func(i int) cluster.Options {
		o := fastOpts(i)
		o.AntiEntropyInterval = 20 * time.Millisecond
		return o
	}
	f := newFabricOpts(t, 2, scfg, opts)

	const jobs = 3
	keys := make([]string, 0, jobs)
	refs := make(map[string]uint64, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		cfg := tinyCfg(seed)
		key, _ := service.CacheKey(&cfg)
		keys = append(keys, key)
		refs[key] = runTiny(t, cfg).Hash()
		j, err := f.Nodes[0].Service().Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}

	f.Kill(1)
	if _, err := f.Restart(1, scfg(1), opts(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "restarted node1 to backfill all records", func() bool {
		for _, k := range keys {
			if _, ok := f.Nodes[1].Service().PeekResult(k); !ok {
				return false
			}
		}
		return true
	})
	for _, k := range keys {
		res, _ := f.Nodes[1].Service().PeekResult(k)
		if res.Hash() != refs[k] {
			t.Fatalf("restarted node record %s hash %x, want %x", k, res.Hash(), refs[k])
		}
	}
}
