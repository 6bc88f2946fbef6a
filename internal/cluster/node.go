package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// Cluster failpoints (see internal/fault): forward makes one routing RPC
// fail as unreachable (the partition model, driving re-dispatch);
// replicate.recv tears one byte of an inbound frame (the CRC check must
// reject it); fetch fails one record fetch (owner, peer, or backfill);
// heartbeat skips one probe.
var (
	fpForward   = fault.Register(fault.SiteClusterForward)
	fpFrameTear = fault.Register(fault.SiteClusterReplicateRecv)
	fpFetch     = fault.Register(fault.SiteClusterFetch)
	fpHeartbeat = fault.Register(fault.SiteClusterHeartbeat)
)

// Options tunes one fabric node. The zero value of every field selects a
// production-shaped default; tests shrink the intervals.
type Options struct {
	// ID is the node's stable identity on the ring. Required.
	ID string
	// Addr is the advertised base URL for HTTP fabrics (empty in-process).
	Addr string
	// Replicas is the ring's virtual-node count per member (default 64).
	Replicas int
	// HeartbeatInterval is the peer probe cadence (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter is how stale a peer's heartbeat may be before it is
	// marked dead (default 4 × HeartbeatInterval).
	SuspectAfter time.Duration
	// PollInterval is the forwarded-job status poll cadence, also the busy
	// backoff unit (default 100ms).
	PollInterval time.Duration
	// ForwardRetries is how many ErrBusy responses a forward absorbs before
	// executing locally instead (default 3).
	ForwardRetries int
	// MaxHops bounds re-dispatch hops across dying owners before the job
	// falls back to local execution (default 4).
	MaxHops int
	// AntiEntropyInterval is the cadence of the anti-entropy loop: each tick
	// exchanges digests with one live peer round-robin and backfills missing
	// durable records (default 30s; negative disables the loop).
	AntiEntropyInterval time.Duration
}

func (o *Options) defaults() {
	if o.Replicas <= 0 {
		o.Replicas = 64
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 4 * o.HeartbeatInterval
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.ForwardRetries <= 0 {
		o.ForwardRetries = 3
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 4
	}
	if o.AntiEntropyInterval == 0 {
		o.AntiEntropyInterval = 30 * time.Second
	}
}

// Counters is a node's cluster-counter snapshot (tests, smoke checks).
type Counters struct {
	Forwarded     uint64 // fresh jobs this node routed to a remote owner
	Received      uint64 // forwarded jobs accepted as owner
	Redispatched  uint64 // forwards re-routed after an owner died
	LocalFallback uint64 // routed jobs that ended up executing here
	ReplTorn      uint64 // inbound frames rejected by CRC verification
	Fetched       uint64 // records fetched from peers for routed jobs
	FetchServed   uint64 // records served to fetching peers
	Backfilled    uint64 // records backfilled via anti-entropy sync
}

// Node is one fabric member: a service.Service plus the routing,
// record-fetch, and health machinery that makes N of them act as one
// scheduler. The service never learns about the cluster — the node attaches
// itself through the service's hook surface (service/cluster.go).
type Node struct {
	id   string
	opts Options
	svc  *service.Service
	tr   Transport

	ring    *Ring
	members *membership

	mu     sync.Mutex        // guards health; orders Close against track
	health map[string]Health // last heartbeat payload per peer

	syncing atomic.Bool // anti-entropy backfill in progress

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  bool

	forwarded     atomic.Uint64
	received      atomic.Uint64
	redispatched  atomic.Uint64
	localFallback atomic.Uint64
	replTorn      atomic.Uint64
	fetched       atomic.Uint64
	fetchServed   atomic.Uint64
	backfilled    atomic.Uint64
}

// New builds a node around svc. The node installs itself into the service's
// stats hook; call SetTransport, AddMember for the known peers, then Start.
func New(svc *service.Service, opts Options) *Node {
	opts.defaults()
	n := &Node{
		id:      opts.ID,
		opts:    opts,
		svc:     svc,
		ring:    NewRing(opts.Replicas),
		members: newMembership(),
		health:  map[string]Health{},
		stop:    make(chan struct{}),
	}
	n.ring.Add(n.id)
	n.members.upsert(n.selfMember(), true, time.Now())
	svc.SetClusterStats(n.nodeStats)
	return n
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.id }

// Service returns the wrapped scheduler.
func (n *Node) Service() *service.Service { return n.svc }

// SetTransport wires the inter-node RPC implementation. Must be called
// before Start.
func (n *Node) SetTransport(tr Transport) { n.tr = tr }

// selfMember is this node's identity as announced through joins: id and
// advertised address.
func (n *Node) selfMember() Member {
	return Member{ID: n.id, Addr: n.opts.Addr}
}

// AddMember registers a peer on the ring and in the membership table.
// Idempotent; safe while running (joins arrive concurrently).
func (n *Node) AddMember(mem Member) { n.admitMember(mem) }

// admitMember is the single funnel every membership source goes through
// (static config, self-join, gossip). A genuinely new member extends the
// ring; queued jobs whose keys it now owns stay where they are, and only
// later submissions route to it. Returns true only for new members — the
// gossip-convergence signal.
func (n *Node) admitMember(mem Member) bool {
	if mem.ID == "" || mem.ID == n.id {
		return false
	}
	if !n.members.upsert(mem, false, time.Now()) {
		return false
	}
	n.ring.Add(mem.ID)
	return true
}

// JoinVia announces this node to seed (a member id the transport can reach)
// and adopts every member the seed reports — the programmatic join used by
// fabric tests and by nodes entering a running cluster.
func (n *Node) JoinVia(ctx context.Context, seed string) error {
	mems, err := n.tr.Join(ctx, seed, n.selfMember())
	if err != nil {
		return err
	}
	for _, m := range mems {
		n.AddMember(m)
	}
	return nil
}

// MarkPeerSeen records inbound evidence of a peer's liveness: any
// successful RPC *from* id (a forward, a fetch, a join) resets
// its suspect timer, so a busy-but-healthy peer whose heartbeats are
// delayed is not marked dead while it is demonstrably doing work. Unknown
// ids are ignored (membership is join-driven).
func (n *Node) MarkPeerSeen(id string) {
	if id == "" || id == n.id {
		return
	}
	n.members.markAlive(id, time.Now())
}

// MemberAddr resolves a member id to its advertised address (the HTTP
// transport's resolver).
func (n *Node) MemberAddr(id string) (string, bool) { return n.members.addr(id) }

// Members lists the current membership, sorted by id.
func (n *Node) Members() []Member { return n.members.list() }

// Counters snapshots the node's cluster counters.
func (n *Node) Counters() Counters {
	return Counters{
		Forwarded:     n.forwarded.Load(),
		Received:      n.received.Load(),
		Redispatched:  n.redispatched.Load(),
		LocalFallback: n.localFallback.Load(),
		ReplTorn:      n.replTorn.Load(),
		Fetched:       n.fetched.Load(),
		FetchServed:   n.fetchServed.Load(),
		Backfilled:    n.backfilled.Load(),
	}
}

// Start launches the heartbeat and anti-entropy loops.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.wg.Add(1)
	go n.heartbeats()
	if n.opts.AntiEntropyInterval > 0 {
		n.wg.Add(1)
		go n.antiEntropy()
	}
}

// Close stops the loops and waits for every routed job and gossip
// goroutine to finish. It does not close the wrapped service — the owner
// does that.
func (n *Node) Close() {
	n.mu.Lock()
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Unlock()
	n.wg.Wait()
}

// track reserves a WaitGroup slot for a goroutine about to start, or
// returns false once Close has begun. Checking stop under n.mu, which
// Close holds while closing it, keeps every Add ahead of Close's Wait:
// a routed submit or a gossip fan-out racing Close otherwise adds to a
// WaitGroup that is already being waited on.
func (n *Node) track() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		return false
	default:
		n.wg.Add(1)
		return true
	}
}

// sleepInterval blocks for one PollInterval or until the node starts
// closing. It returns false when the node is stopping, so forward-retry and
// status-poll loops observe Close instead of sleeping through it — a
// never-terminal remote job must not hold Close's wg.Wait hostage.
func (n *Node) sleepInterval() bool {
	select {
	case <-n.stop:
		return false
	case <-time.After(n.opts.PollInterval):
		return true
	}
}

// ---------------------------------------------------------------------------
// Dispatch: the submission path.

// Submit schedules cfg cluster-wide: uncacheable configs (no canonical
// identity) run locally; keys this node owns go through the local scheduler
// unchanged; everything else becomes a routed job driven to completion on
// the ring owner, with deterministic re-dispatch if the owner dies.
func (n *Node) Submit(client string, cfg sim.Config) (*service.Job, error) {
	key, cacheable := service.CacheKey(&cfg)
	if !cacheable {
		return n.svc.Submit(client, cfg)
	}
	owner := n.owner(key)
	if owner == n.id {
		return n.svc.Submit(client, cfg)
	}
	j, fresh, err := n.svc.NewRoutedJob(client, key, cfg)
	if err != nil {
		return nil, err
	}
	if fresh {
		if !n.track() {
			n.svc.FinishRouted(j, nil, ErrNodeClosed)
			return j, nil
		}
		n.forwarded.Add(1)
		go n.routeJob(j, owner)
	}
	return j, nil
}

// Run submits cfg and blocks until the job is terminal.
func (n *Node) Run(ctx context.Context, client string, cfg sim.Config) (*sim.Result, error) {
	j, err := n.Submit(client, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// owner is the ring owner of key among members not marked dead; self is
// never marked dead, so it always resolves. A peer that failed its last
// RPC is dead from that moment on, so its keys fall to the next live node
// at once instead of burning MaxHops timeouts per routed job.
func (n *Node) owner(key string) string {
	if o := n.ring.Owner(key, n.members.isDead); o != "" {
		return o
	}
	return n.id
}

// reach runs one outbound RPC to peer and feeds its outcome to the
// membership table, the fabric's one failure detector: an unreachable-class
// failure marks the peer dead at once, and any answer — including ErrBusy
// and permanent errors — marks it alive, because an answered RPC is
// liveness evidence as good as a heartbeat. The heartbeat probe is the one
// RPC outside reach: its misses are left to the SuspectAfter sweep, and its
// answers are how a dead peer comes back.
func (n *Node) reach(peer string, fn func() error) error {
	err := fn()
	if isUnreachable(err) {
		n.members.markDead(peer)
	} else {
		n.members.markAlive(peer, time.Now())
	}
	return err
}

// routeJob drives a routed job to a terminal state: forward to the owner,
// mirror progress and cancellation, fetch the result bytes; when an owner
// dies, fail over to the next ring owner; as the last resort run locally
// (after trying a peer fetch — a peer may already hold the record, e.g. an
// entry node that routed the same key earlier).
func (n *Node) routeJob(j *service.Job, owner string) {
	defer n.wg.Done()
	if !n.svc.StartRouted(j) {
		n.svc.FinishRouted(j, nil, sim.ErrCancelled)
		return
	}
	for hop := 0; hop < n.opts.MaxHops && owner != n.id; hop++ {
		done, next := n.runRemote(j, owner)
		if done {
			return
		}
		n.redispatched.Add(1)
		owner = next
	}
	n.localFallback.Add(1)
	if res, ok := n.fetchFromPeers(j.Key()); ok {
		n.svc.FinishRouted(j, res, nil)
		return
	}
	n.svc.ExecuteNow(j)
}

// runRemote forwards j to owner and follows it to a terminal state.
// done=false means the owner became unreachable mid-flight; next is the new
// ring owner to try (possibly this node).
func (n *Node) runRemote(j *service.Job, owner string) (done bool, next string) {
	ctx := context.Background()
	req := SubmitRequest{Client: n.id + "/" + j.Client(), Key: j.Key(), Cfg: j.Config()}
	var st service.Status
	for attempt := 0; ; attempt++ {
		var err error
		st, err = n.rpcSubmit(ctx, owner, req)
		if err == nil {
			break
		}
		switch {
		case isUnreachable(err):
			return false, n.owner(j.Key()) // reach already marked owner dead
		case err == ErrBusy && attempt < n.opts.ForwardRetries:
			if !n.sleepInterval() {
				n.svc.FinishRouted(j, nil, ErrNodeClosed)
				return true, ""
			}
		case err == ErrBusy:
			// Owner is saturated: run the job here instead —
			// determinism makes the potential duplicate execution benign.
			return false, n.id
		default:
			n.svc.FinishRouted(j, nil, fmt.Errorf("cluster: forward to %s: %w", owner, err))
			return true, ""
		}
	}
	sentCancel := false
	for {
		if st.State == service.StateCancelled && !j.CancelRequested() {
			// Cancelled at the owner without a request from here: it is
			// closing while still answering. Dispatch again; a draining
			// owner refuses the resubmit and reach marks it dead.
			return false, n.owner(j.Key())
		}
		if st.State.Terminal() {
			return n.finishRemote(ctx, j, owner, st), ""
		}
		if !n.sleepInterval() {
			// Node is closing: fail the waiter rather than hold wg.Wait
			// hostage to a remote job that may never reach a terminal state.
			// If the owner does finish later, fetch or anti-entropy delivers
			// the record anyway and the duplicate execution is benign.
			n.svc.FinishRouted(j, nil, ErrNodeClosed)
			return true, ""
		}
		if !sentCancel && j.CancelRequested() {
			_ = n.rpcCancel(ctx, owner, st.ID) // best effort; polls confirm
			sentCancel = true
		}
		st2, err := n.rpcStatus(ctx, owner, st.ID)
		if err != nil {
			// Unreachable or the owner restarted and forgot the job: either
			// way the run is gone there — fail over.
			return false, n.failOver(owner, j.Key())
		}
		st = st2
		j.ReportProgress(sim.Progress{
			Cycles: st.Cycles, Retired: st.Retired,
			TargetInstrs: st.TargetInstrs, IPC: st.IPC,
		})
	}
}

// finishRemote resolves a routed job whose remote run reached a terminal
// state. Returns false (not done) only when the result bytes could not be
// retrieved from anywhere — the caller then re-dispatches.
func (n *Node) finishRemote(ctx context.Context, j *service.Job, owner string, st service.Status) bool {
	switch st.State {
	case service.StateDone:
		if res, err := n.fetchRecord(ctx, owner, j.Key(), &n.fetched); err == nil {
			n.svc.FinishRouted(j, res, nil)
			return true
		}
		if res, ok := n.fetchFromPeers(j.Key()); ok {
			n.svc.FinishRouted(j, res, nil)
			return true
		}
		n.members.markDead(owner)
		return false
	case service.StateCancelled:
		n.svc.FinishRouted(j, nil, sim.ErrCancelled)
		return true
	default:
		n.svc.FinishRouted(j, nil, &RemoteError{Node: owner, Msg: st.Error})
		return true
	}
}

// failOver marks owner dead and returns the key's next ring owner. reach
// already marks an unreachable owner dead; failOver covers the owner that
// answered but lost the job (a restart forgot it, or its record is gone).
func (n *Node) failOver(owner, key string) string {
	n.members.markDead(owner)
	return n.owner(key)
}

// rpcSubmit/rpcStatus/rpcCancel wrap the routing RPCs with the forward
// failpoint: a firing is indistinguishable from a partition and, because it
// fires inside reach, marks the peer dead exactly like real unreachability.
func (n *Node) rpcSubmit(ctx context.Context, node string, req SubmitRequest) (service.Status, error) {
	var st service.Status
	err := n.reach(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		var err error
		st, err = n.tr.Submit(ctx, node, req)
		return err
	})
	return st, err
}

func (n *Node) rpcStatus(ctx context.Context, node, jobID string) (service.Status, error) {
	var st service.Status
	err := n.reach(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		var err error
		st, err = n.tr.Status(ctx, node, jobID)
		return err
	})
	return st, err
}

func (n *Node) rpcCancel(ctx context.Context, node, jobID string) error {
	return n.reach(node, func() error {
		if fpForward.Fire() {
			return ErrUnreachable
		}
		return n.tr.Cancel(ctx, node, jobID)
	})
}

func isUnreachable(err error) bool {
	return err == ErrUnreachable || err == service.ErrDraining
}

// ---------------------------------------------------------------------------
// Record spread: owner fetch, peer fetch, and the inbound-frame guard.
//
// Results spread by pull only. An entry node fetches a routed job's record
// from the owner (finishRemote) or, failing that, from any live peer
// (fetchFromPeers); anti-entropy pulls whatever else a node lacks.

// fetchRecord pulls the durable frame for key from one peer and seeds it
// through acceptFrame; a success is counted in ctr.
func (n *Node) fetchRecord(ctx context.Context, node, key string, ctr *atomic.Uint64) (*sim.Result, error) {
	var frame []byte
	err := n.reach(node, func() error {
		if fpFetch.Fire() {
			return ErrUnreachable
		}
		var err error
		frame, err = n.tr.Fetch(ctx, node, key)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := n.acceptFrame(frame, key)
	if err != nil {
		return nil, err
	}
	ctr.Add(1)
	return res, nil
}

// acceptFrame is the single decode-and-seed step every inbound frame passes
// — fetched and backfilled alike: CRC-verify, check the key against want,
// then seed the local cache (write-through to disk when configured). Torn
// frames are rejected and counted, so a corrupt byte can never reach the
// cache.
func (n *Node) acceptFrame(frame []byte, want string) (*sim.Result, error) {
	if len(frame) > 0 && fpFrameTear.Fire() {
		// Tear the copy mid-frame; the verification below must reject it.
		torn := append([]byte(nil), frame...)
		torn[len(torn)/2] ^= 0xFF
		frame = torn
	}
	key, res, err := service.DecodeRecord(frame)
	if err != nil {
		n.replTorn.Add(1)
		return nil, fmt.Errorf("cluster: replica rejected: %w", err)
	}
	if key != want {
		return nil, fmt.Errorf("cluster: record for %q answered a fetch for %q", key, want)
	}
	n.svc.SeedResult(key, res)
	return res, nil
}

// fetchFromPeers tries every live peer in id order.
func (n *Node) fetchFromPeers(key string) (*sim.Result, bool) {
	for _, p := range n.members.alivePeers(n.id) {
		if res, err := n.fetchRecord(context.Background(), p.ID, key, &n.fetched); err == nil {
			return res, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Receiver-side handlers (the transport calls these on the target node).

// HandleSubmit is the owner-side intake for a forwarded job. The key is
// recomputed from the config and must match the sender's — a mismatch means
// the config did not survive its encoding and the job must not run under
// the forwarded identity.
func (n *Node) HandleSubmit(req SubmitRequest) (service.Status, error) {
	key, ok := service.CacheKey(&req.Cfg)
	if !ok || key != req.Key {
		return service.Status{}, fmt.Errorf("cluster: forwarded key %q does not match config (computed %q)", req.Key, key)
	}
	j, err := n.svc.Submit(req.Client, req.Cfg)
	if err != nil {
		return service.Status{}, err
	}
	n.received.Add(1)
	return j.Status(), nil
}

// HandleStatus polls a job by id.
func (n *Node) HandleStatus(jobID string) (service.Status, error) {
	j, ok := n.svc.Job(jobID)
	if !ok {
		return service.Status{}, service.ErrNotFound
	}
	return j.Status(), nil
}

// HandleCancel propagates a cancellation.
func (n *Node) HandleCancel(jobID string) error { return n.svc.Cancel(jobID) }

// HandleFetch serves the durable frame for key from the local cache.
func (n *Node) HandleFetch(key string) ([]byte, error) {
	res, ok := n.svc.PeekResult(key)
	if !ok {
		return nil, ErrNoRecord
	}
	frame, err := service.EncodeRecord(key, res)
	if err != nil {
		return nil, err
	}
	n.fetchServed.Add(1)
	return frame, nil
}

// HandlePing answers a heartbeat with this node's load and sync state.
func (n *Node) HandlePing() Health {
	st := n.svc.Stats()
	return Health{
		ID: n.id, Queued: st.QueueDepth, Running: st.Running, Hung: st.Hung,
		Syncing: n.syncing.Load(),
	}
}

// HandleJoin admits a member announced by a peer (or by the member itself),
// returns the full member list, and gossips genuinely new members onward so
// every existing node learns of the newcomer. Idempotent upserts make the
// gossip converge.
func (n *Node) HandleJoin(mem Member) []Member {
	// A join announcement is first-hand liveness: a restarted member that
	// re-announces itself comes back from the dead here, not only when its
	// next heartbeat lands.
	n.MarkPeerSeen(mem.ID)
	if n.admitMember(mem) && n.track() {
		peers := n.members.alivePeers(n.id)
		go func() {
			defer n.wg.Done()
			for _, p := range peers {
				if p.ID == mem.ID {
					continue
				}
				peer := p.ID
				_ = n.reach(peer, func() error {
					_, err := n.tr.Join(context.Background(), peer, mem)
					return err
				})
			}
		}()
	}
	return n.members.list()
}

// ---------------------------------------------------------------------------
// Health.

// heartbeats is the node-granularity watchdog loop: probe every peer (dead
// ones too — that is how they revive after a healed partition), then sweep
// for stale heartbeats.
func (n *Node) heartbeats() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.heartbeatRound()
		}
	}
}

func (n *Node) heartbeatRound() {
	for _, p := range n.members.peers(n.id) {
		if fpHeartbeat.Fire() {
			continue
		}
		peer := p.ID
		// Not through reach: a missed probe only ages the peer, and the
		// sweep below marks it dead after SuspectAfter of silence. Any
		// answer revives it.
		h, err := n.tr.Ping(context.Background(), peer)
		if isUnreachable(err) {
			continue
		}
		n.members.markAlive(peer, time.Now())
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.health[peer] = h
		n.mu.Unlock()
	}
	n.members.sweep(time.Now(), n.opts.SuspectAfter)
}

// nodeStats is the service stats hook: the per-node rows for
// /api/v1/stats/stream and the NODE table in emcctl top.
func (n *Node) nodeStats(local *service.Stats) []service.NodeStat {
	rows := []service.NodeStat{{
		Node: n.id, Addr: n.opts.Addr, State: "self",
		Queued: local.QueueDepth, Running: local.Running, Hung: local.Hung,
		Syncing:      n.syncing.Load(),
		Forwarded:    n.forwarded.Load(),
		Redispatched: n.redispatched.Load(),
		ReplTorn:     n.replTorn.Load(),
		Fetched:      n.fetched.Load(),
		Backfilled:   n.backfilled.Load(),
	}}
	now := time.Now()
	for _, m := range n.members.rows(n.id) {
		row := service.NodeStat{Node: m.ID, Addr: m.Addr, State: "alive", HeartbeatAgeMS: -1}
		if !m.Alive {
			row.State = "dead"
		}
		if !m.LastBeat.IsZero() {
			row.HeartbeatAgeMS = now.Sub(m.LastBeat).Milliseconds()
		}
		n.mu.Lock()
		if h, ok := n.health[m.ID]; ok {
			row.Queued, row.Running, row.Hung = h.Queued, h.Running, h.Hung
			row.Syncing = h.Syncing
		}
		n.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}
