// Fabric unit tests: routing, cluster-wide coalescing, failover, record
// fetch and the torn-frame guard, and membership — all over the in-process
// LocalTransport.
// Failpoints are process-global, so no t.Parallel anywhere in this package.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

func tinyCfg(seed uint64) sim.Config {
	cfg := sim.Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 1000
	cfg.Seed = seed
	return cfg
}

// runTiny runs cfg directly — the ground truth every fabric path is
// compared against.
func runTiny(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fastOpts shrinks every fabric interval so tests converge in milliseconds.
func fastOpts(int) cluster.Options {
	return cluster.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	}
}

func newFabric(t *testing.T, nodes int, scfg func(i int) service.Config) *cluster.Fabric {
	return newFabricOpts(t, nodes, scfg, fastOpts)
}

func newFabricOpts(t *testing.T, nodes int, scfg func(i int) service.Config, opts func(i int) cluster.Options) *cluster.Fabric {
	t.Helper()
	if scfg == nil {
		scfg = func(int) service.Config { return service.Config{Workers: 2, QueueCap: 64} }
	}
	f, err := cluster.NewFabric(cluster.FabricConfig{Nodes: nodes, Service: scfg, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// ownerOf mirrors the fabric's ownership function for an undisturbed N-node
// ring (default replicas, ids node0..nodeN-1).
func ownerOf(nodes int, key string) string {
	r := cluster.NewRing(0)
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	return r.Owner(key, nil)
}

// cfgOwnedBy searches seeds until a tiny config's cache key lands on the
// wanted node — how tests pin down which node executes.
func cfgOwnedBy(t *testing.T, nodes, ownerIdx int) sim.Config {
	t.Helper()
	want := fmt.Sprintf("node%d", ownerIdx)
	for seed := uint64(1); seed < 4096; seed++ {
		cfg := tinyCfg(seed)
		key, ok := service.CacheKey(&cfg)
		if !ok {
			t.Fatal("tiny config unexpectedly uncacheable")
		}
		if ownerOf(nodes, key) == want {
			return cfg
		}
	}
	t.Fatalf("no seed in [1,4096) hashes to %s", want)
	return sim.Config{}
}

// sumExecuted totals actual simulation executions across the fabric — the
// dedup invariant's ground truth.
func sumExecuted(f *cluster.Fabric) uint64 {
	var total uint64
	for _, n := range f.Nodes {
		total += n.Service().Stats().Executed
	}
	return total
}

// TestRoutedSubmitForwardsToOwner: a submission received by a non-owner is
// driven to completion on the ring owner, and exactly one node executes.
func TestRoutedSubmitForwardsToOwner(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	cfg := cfgOwnedBy(t, 3, 1)
	ref := runTiny(t, cfg).Hash()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("routed result hash %#x != direct %#x", res.Hash(), ref)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 {
		t.Fatalf("entry node forwarded %d jobs, want 1 (%+v)", c.Forwarded, c)
	}
	if c := f.Nodes[1].Counters(); c.Received != 1 {
		t.Fatalf("owner received %d forwards, want 1 (%+v)", c.Received, c)
	}
	if m := f.Nodes[1].Service().Stats().Executed; m != 1 {
		t.Fatalf("owner executed %d runs, want 1", m)
	}
	if m := f.Nodes[0].Service().Stats().Executed; m != 0 {
		t.Fatalf("entry node executed %d runs, want 0", m)
	}
	// The fetched result seeds the entry node's cache: resubmitting locally
	// is now a cache hit, no forward.
	j, err := f.Nodes[0].Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if c := f.Nodes[0].Counters(); c.Forwarded != 1 {
		t.Fatalf("resubmit after fetch forwarded again (%d)", c.Forwarded)
	}
}

// TestDuplicateSubmissionsCoalesceClusterWide is the cross-node dedup
// contract: identical fingerprints submitted concurrently to two different
// nodes coalesce into one actual run, and every caller gets byte-identical
// result records.
func TestDuplicateSubmissionsCoalesceClusterWide(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	// Owner is node2, so both entry nodes (0 and 1) must forward and the
	// owner's scheduler is the cluster-wide serialization point.
	cfg := cfgOwnedBy(t, 3, 2)
	key, _ := service.CacheKey(&cfg)
	ref := runTiny(t, cfg).Hash()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const perNode = 3
	results := make([]*sim.Result, 2*perNode)
	errs := make([]error, 2*perNode)
	var wg sync.WaitGroup
	for i := 0; i < 2*perNode; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Nodes[i%2].Run(ctx, fmt.Sprintf("client%d", i), cfg)
		}(i)
	}
	wg.Wait()

	var first []byte
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if res.Hash() != ref {
			t.Fatalf("caller %d: hash %#x != reference %#x", i, res.Hash(), ref)
		}
		frame, err := service.EncodeRecord(key, res)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = frame
		} else if !bytes.Equal(frame, first) {
			t.Fatalf("caller %d: result record bytes differ from caller 0", i)
		}
	}
	if got := sumExecuted(f); got != 1 {
		t.Fatalf("%d actual executions across the fabric, want exactly 1", got)
	}
	if c := f.Nodes[2].Counters(); c.Received == 0 {
		t.Fatalf("owner never received a forward (%+v)", c)
	}
}

// TestOwnerDeathRedispatch: when a key's owner is dead, the forward fails
// over to the next ring owner deterministically and the job still completes
// with the reference result.
func TestOwnerDeathRedispatch(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	cfg := cfgOwnedBy(t, 3, 1)
	ref := runTiny(t, cfg).Hash()

	f.Kill(1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("failover result hash %#x != direct %#x", res.Hash(), ref)
	}
	c := f.Nodes[0].Counters()
	if c.Redispatched == 0 && c.LocalFallback == 0 {
		t.Fatalf("no failover recorded after owner death (%+v)", c)
	}
	// Exactly one surviving node executed.
	if got := f.Nodes[0].Service().Stats().Executed + f.Nodes[2].Service().Stats().Executed; got != 1 {
		t.Fatalf("%d executions on survivors, want 1", got)
	}
}

// TestUnrequestedRemoteCancelRedispatches: an owner that cancels a
// forwarded job this node never asked to cancel — its service closing while
// it still answers RPCs, as a drain past its timeout does — must not cancel
// the caller's job. The entry node dispatches again, the draining owner
// refuses the resubmit and is marked dead, and the job completes locally.
func TestUnrequestedRemoteCancelRedispatches(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	f := newFabricOpts(t, 2, func(int) service.Config {
		return service.Config{Workers: 1, QueueCap: 64}
	}, func(i int) cluster.Options {
		o := fastOpts(i)
		o.SuspectAfter = time.Hour // keep the sweep out of it
		return o
	})

	// Park node1's only worker so the forwarded job stays queued there.
	blocker := tinyCfg(99)
	blocker.CoreTweak = func(*cpu.Config) { <-release }
	if _, err := f.Nodes[1].Submit("blocker", blocker); err != nil {
		t.Fatal(err)
	}
	cfg := cfgOwnedBy(t, 2, 1)
	ref := runTiny(t, cfg).Hash()
	j, err := f.Nodes[0].Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "job queued on node1", func() bool {
		return f.Nodes[1].Counters().Received > 0
	})

	// Close node1's service with its transport still up: the queued copy
	// finalizes cancelled once the blocker lets the worker go.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = f.Nodes[1].Service().Close()
	}()
	close(release)
	<-closed

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("routed job: %v (state %s)", err, j.Status().State)
	}
	if res.Hash() != ref {
		t.Fatalf("result hash %#x, want %#x", res.Hash(), ref)
	}
	if c := f.Nodes[0].Counters(); c.Redispatched == 0 {
		t.Fatalf("no re-dispatch after the owner's unrequested cancel (%+v)", c)
	}
}

// TestBusyOwnerRunsLocally: an owner whose queue stays full answers every
// forward with ErrBusy; after ForwardRetries the entry node runs the job
// itself, with the reference result, while the owner executes nothing.
func TestBusyOwnerRunsLocally(t *testing.T) {
	fault.DisableAll()
	release := make(chan struct{})
	defer close(release)
	f := newFabricOpts(t, 2, func(i int) service.Config {
		if i == 0 {
			return service.Config{Workers: 1, QueueCap: 1}
		}
		return service.Config{Workers: 1, QueueCap: 64}
	}, fastOpts)

	// Park node0's only worker and fill its one queue slot with uncacheable
	// blockers (CoreTweak makes them non-routable, so they stay on node0).
	blocker := tinyCfg(99)
	blocker.CoreTweak = func(*cpu.Config) { <-release }
	if _, err := f.Nodes[0].Submit("blocker", blocker); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "blocker running on node0", func() bool {
		return f.Nodes[0].Service().Stats().Running == 1
	})
	if _, err := f.Nodes[0].Submit("blocker", blocker); err != nil {
		t.Fatal(err)
	}

	cfg := cfgOwnedBy(t, 2, 0)
	ref := runTiny(t, cfg).Hash()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[1].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash() != ref {
		t.Fatalf("local fallback result hash %#x != direct %#x", res.Hash(), ref)
	}
	if c := f.Nodes[1].Counters(); c.LocalFallback != 1 || c.Redispatched != 1 {
		t.Fatalf("busy owner not answered by one local fallback (%+v)", c)
	}
	if got := f.Nodes[1].Service().Stats().Executed; got != 1 {
		t.Fatalf("entry node executed %d, want 1", got)
	}
	if got := f.Nodes[0].Service().Stats().Executed; got != 0 {
		t.Fatalf("busy owner executed %d, want 0", got)
	}
}

// TestSubmitAfterCloseFailsRouted: a routed submission that arrives after
// Close began fails with ErrNodeClosed at once — no forward, no goroutine
// added to a WaitGroup that Close is already waiting on.
func TestSubmitAfterCloseFailsRouted(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 2, nil)
	f.Nodes[0].Close()
	j, err := f.Nodes[0].Submit("t", cfgOwnedBy(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, cluster.ErrNodeClosed) {
		t.Fatalf("routed job after Close: %v, want ErrNodeClosed", err)
	}
	if c := f.Nodes[1].Counters(); c.Received != 0 {
		t.Fatalf("closed node still forwarded (%+v)", c)
	}
}

// TestCloseRacesRoutedSubmits: routed submissions racing Close each end in
// a terminal state — done, or ErrNodeClosed — and Close returns; run under
// -race this also checks no submit adds to the WaitGroup Close waits on.
func TestCloseRacesRoutedSubmits(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 2, nil)
	var cfgs []sim.Config
	for seed := uint64(1); len(cfgs) < 8 && seed < 4096; seed++ {
		cfg := tinyCfg(seed)
		key, _ := service.CacheKey(&cfg)
		if ownerOf(2, key) == "node1" {
			cfgs = append(cfgs, cfg)
		}
	}
	jobs := make([]*service.Job, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := f.Nodes[0].Submit(fmt.Sprintf("c%d", i), cfgs[i])
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	f.Nodes[0].Close()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, j := range jobs {
		if j == nil {
			continue
		}
		if _, err := j.Wait(ctx); err != nil && !errors.Is(err, cluster.ErrNodeClosed) {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestTornReplicaRejected: a record frame fetched from its owner and
// corrupted in flight must be rejected by the CRC check, counted, and kept
// out of the cache; the retransmit seeds bit-identically.
func TestTornReplicaRejected(t *testing.T) {
	fault.DisableAll()
	t.Cleanup(fault.DisableAll)
	f := newFabricOpts(t, 2, nil, func(i int) cluster.Options {
		o := fastOpts(i)
		o.AntiEntropyInterval = -1 // no background backfill of the record
		return o
	})
	cfg := cfgOwnedBy(t, 2, 0)
	key, _ := service.CacheKey(&cfg)
	res := runTiny(t, cfg)
	frame, err := service.EncodeRecord(key, res)
	if err != nil {
		t.Fatal(err)
	}
	f.Nodes[0].Service().SeedResult(key, res)

	fp, ok := fault.Lookup(fault.SiteClusterReplicateRecv)
	if !ok {
		t.Fatal("replicate.recv failpoint not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fp.Enable(fault.Trigger{Once: true})
	if _, err := f.Nodes[1].FetchRecord(ctx, "node0", key); err == nil {
		t.Fatal("torn replica accepted")
	} else if !errors.Is(err, service.ErrRecordCorrupt) {
		t.Fatalf("torn replica rejected with the wrong error: %v", err)
	}
	if c := f.Nodes[1].Counters(); c.ReplTorn != 1 || c.Fetched != 0 {
		t.Fatalf("torn counters wrong: %+v", c)
	}
	if _, ok := f.Nodes[1].Service().PeekResult(key); ok {
		t.Fatal("torn replica reached the cache")
	}

	// The retransmit (failpoint disarmed by Once) seeds bit-identically.
	if _, err := f.Nodes[1].FetchRecord(ctx, "node0", key); err != nil {
		t.Fatalf("clean replica rejected: %v", err)
	}
	got, ok := f.Nodes[1].Service().PeekResult(key)
	if !ok {
		t.Fatal("clean replica not seeded")
	}
	reframe, err := service.EncodeRecord(key, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reframe, frame) {
		t.Fatal("seeded replica re-encodes to different bytes")
	}
}

// TestNonOwnerDuplicateServedFromOwnerCache: a duplicate submitted at a
// non-owner after the owner computed the key is forwarded once and served
// from the owner's cache; FinishRouted's write-through then makes a third
// submission at that node a local cache hit with no new forward.
func TestNonOwnerDuplicateServedFromOwnerCache(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	cfg := cfgOwnedBy(t, 3, 0)
	key, _ := service.CacheKey(&cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Nodes[0].Run(ctx, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{1, 2} {
		dup, err := f.Nodes[i].Run(ctx, "t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dup.Hash() != res.Hash() {
			t.Fatalf("node%d duplicate hash %#x != original %#x", i, dup.Hash(), res.Hash())
		}
		if c := f.Nodes[i].Counters(); c.Forwarded != 1 {
			t.Fatalf("node%d duplicate forwarded %d times, want 1 (%+v)", i, c.Forwarded, c)
		}
		peer, ok := f.Nodes[i].Service().PeekResult(key)
		if !ok {
			t.Fatalf("served duplicate did not seed node%d's cache", i)
		}
		if peer.Hash() != res.Hash() {
			t.Fatalf("node%d cached hash %#x != original %#x", i, peer.Hash(), res.Hash())
		}

		// A third submission at the same non-owner is a pure local cache hit.
		j, err := f.Nodes[i].Submit("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if c := f.Nodes[i].Counters(); c.Forwarded != 1 {
			t.Fatalf("node%d cached key still forwarded (%+v)", i, c)
		}
	}
	if got := sumExecuted(f); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}

// TestRoutedCancelPropagates: cancelling a routed job on the entry node
// reaches the owner and both sides settle cancelled.
func TestRoutedCancelPropagates(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 2, nil)
	// A long run gives the cancel time to land; owned by node1 so node0
	// routes it.
	var cfg sim.Config
	found := false
	for seed := uint64(1); seed < 4096; seed++ {
		cfg = tinyCfg(seed)
		cfg.InstrPerCore = 30_000_000
		if key, _ := service.CacheKey(&cfg); ownerOf(2, key) == "node1" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no node1-owned seed")
	}
	j, err := f.Nodes[0].Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the remote run to visibly start (mirrored progress), then
	// cancel through the entry node's service.
	deadline := time.Now().Add(20 * time.Second)
	for j.Status().Retired == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Nodes[0].Service().Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("routed job ended %v, want cancellation", err)
	}
	if st := j.Status(); st.State != service.StateCancelled {
		t.Fatalf("routed job state %s, want cancelled", st.State)
	}
}

// TestJoinGossip: a node joining through one member propagates to the rest
// of the fabric without the newcomer contacting them.
func TestJoinGossip(t *testing.T) {
	fault.DisableAll()
	lt := cluster.NewLocalTransport()
	mk := func(id string) *cluster.Node {
		svc, err := service.Open(service.Config{Workers: 1, QueueCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		n := cluster.New(svc, cluster.Options{
			ID:                id,
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
		})
		lt.Attach(n)
		t.Cleanup(n.Close)
		return n
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	a.AddMember(cluster.Member{ID: "b"})
	b.AddMember(cluster.Member{ID: "a"})
	a.Start()
	b.Start()
	c.Start()

	members := a.HandleJoin(cluster.Member{ID: "c"})
	if len(members) != 3 {
		t.Fatalf("join returned %d members, want 3: %+v", len(members), members)
	}
	for _, m := range members {
		c.AddMember(m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(b.Members()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never reached b: %+v", b.Members())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNodeStatsRows: Stats.Nodes carries one self row with counters plus one
// row per peer with heartbeat-fed load.
func TestNodeStatsRows(t *testing.T) {
	fault.DisableAll()
	f := newFabric(t, 3, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Nodes[0].Service().Stats()
		if len(st.Nodes) == 3 && st.Nodes[0].State == "self" {
			alive := 0
			for _, row := range st.Nodes[1:] {
				if row.State == "alive" && row.HeartbeatAgeMS >= 0 {
					alive++
				}
			}
			if alive == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node rows never converged: %+v", st.Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A dead peer flips its row.
	f.Kill(2)
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := f.Nodes[0].Service().Stats()
		dead := false
		for _, row := range st.Nodes {
			if row.Node == "node2" && row.State == "dead" {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed peer never marked dead: %+v", st.Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
