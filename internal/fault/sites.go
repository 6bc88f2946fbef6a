package fault

// This file is the single registry of failpoint site names. Every
// fault.Register call in the module must pass one of these constants, each
// constant backs exactly one site, and no site constants may be declared
// anywhere else — all three rules are enforced at build time by the
// failpoint analyzer (cmd/simlint), so the EMCSIM_FAILPOINTS documentation
// below cannot drift from the code.
//
// Arm sites via the environment, e.g.:
//
//	EMCSIM_FAILPOINTS='service/worker.prerun=prob:0.01:seed7;sim/cycle=after:1000:oneshot'
const (
	// SiteSimCycle fires inside System.step, before the cycle's work: the
	// mid-run crash hook for the worker retry path and the chaos suite.
	SiteSimCycle = "sim/cycle"

	// SiteQueueAdmit fires in the scheduler's admit path, before a job is
	// enqueued.
	SiteQueueAdmit = "service/queue.admit"
	// SiteWorkerPre fires in the worker loop after dequeue, before the
	// simulation runs.
	SiteWorkerPre = "service/worker.prerun"
	// SiteWorkerPost fires after a simulation completes, before its result
	// is published.
	SiteWorkerPost = "service/worker.postrun"
	// SiteDrain fires during graceful drain/shutdown.
	SiteDrain = "service/drain"

	// SiteCacheGet fires on in-memory result-cache lookups.
	SiteCacheGet = "service/cache.get"
	// SiteCachePut fires on in-memory result-cache inserts.
	SiteCachePut = "service/cache.put"

	// SiteDurablePut fires while persisting a result record to disk.
	SiteDurablePut = "service/durable.put"
	// SiteDurableLoad fires while loading durable records at boot.
	SiteDurableLoad = "service/durable.load"

	// SiteClusterForward fires on every inter-node RPC a routing node makes
	// for a forwarded job (submit, status poll, cancel); a firing is treated
	// as the owner being unreachable, driving the re-dispatch path — the
	// fabric's partition model.
	SiteClusterForward = "cluster/forward"
	// SiteClusterReplicateRecv fires in the single decode-and-seed step every
	// inbound record frame passes (fetched or backfilled); a firing tears one
	// byte of the frame, which the CRC check must reject.
	SiteClusterReplicateRecv = "cluster/replicate.recv"
	// SiteClusterFetch fires on every record fetch from a peer — owner
	// fetch, peer fetch, and anti-entropy backfill — failing it as
	// unreachable.
	SiteClusterFetch = "cluster/fetch"
	// SiteClusterHeartbeat fires in the heartbeat loop, skipping that round's
	// probe of one peer — heartbeat loss without a real partition.
	SiteClusterHeartbeat = "cluster/heartbeat"

	// SiteClusterAntiEntropyDigest fires on the anti-entropy digest
	// exchange: the round's digest RPC fails as unreachable, so the node
	// skips that peer this round and converges on a later one.
	SiteClusterAntiEntropyDigest = "cluster/antientropy.digest"
)
