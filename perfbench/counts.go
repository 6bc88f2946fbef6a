package main

import (
	"repro/internal/sim"
)

// simCounts sums the simulated statistics of a set of runs. Every count is
// exact and repeats bit for bit for a given seed and budget; the ratios are
// taken over the sums, so a long run weighs more than a short one.
type simCounts struct {
	runs            int
	cycles, skipped uint64
	ipcSum          float64

	coreCycles, robFull, fullWindow uint64
	llcMissLoads, depMissLoads      uint64
	chains, chainUops               uint64

	llcHits, llcMisses uint64

	dramReads, dramWrites, rowConflicts, rowAccesses uint64
	queueDelay, readLatency, busBusy, busCycles      uint64
	queueFull                                        uint64

	msgs, hops, transit, transitN uint64

	emcInstalled, emcRejected, emcAborted uint64
	emcReads, demandReads                 uint64
	emcCacheHits, emcCacheMisses          uint64
	emcMissTotal, emcMissCount            uint64

	pfIssued, pfUseful uint64
}

// add accumulates one run; skipped is the run's System.SkippedCycles.
func (c *simCounts) add(r *sim.Result, skipped uint64) {
	c.runs++
	c.cycles += r.Cycles
	c.skipped += skipped
	c.ipcSum += r.AvgIPC()
	for _, core := range r.Cores {
		st := core.Stats
		c.coreCycles += st.Cycles
		c.robFull += st.ROBFullCycles
		c.fullWindow += st.FullWindowStalls
		c.llcMissLoads += st.LLCMissLoads
		c.depMissLoads += st.DependentMissLoads
		c.chains += st.ChainsGenerated
		c.chainUops += st.ChainUops
	}
	c.llcHits += r.Sys.LLCHits
	c.llcMisses += r.Sys.LLCMisses
	for _, d := range r.DRAM {
		c.dramReads += d.Reads
		c.dramWrites += d.Writes
		c.rowConflicts += d.RowConflicts
		c.rowAccesses += d.RowHits + d.RowConflicts + d.RowEmpty
		c.queueDelay += d.TotalQueueDelay
		c.readLatency += d.TotalReadLatency
		c.busBusy += d.BusBusy
		c.queueFull += d.QueueFull
	}
	c.busCycles += r.Cycles * uint64(r.Config.Geometry.Channels)
	c.msgs += r.CtrlRingMsgs + r.DataRingMsgs
	c.hops += r.CtrlRingHops + r.DataRingHops
	c.transit += r.Sys.CoreMissRingReq + r.Sys.CoreMissRingRsp
	c.transitN += r.Sys.CoreMissSegCount
	for _, e := range r.EMC {
		c.emcInstalled += e.ChainsInstalled
		c.emcRejected += e.ChainsRejected
		c.emcAborted += e.ChainsAborted
		c.emcCacheHits += e.CacheHits
		c.emcCacheMisses += e.CacheMisses
	}
	c.emcReads += r.Sys.DRAMEMCReads
	c.demandReads += r.Sys.DRAMDemandReads
	c.emcMissTotal += r.Sys.EMCMissTotal
	c.emcMissCount += r.Sys.EMCMissCount
	c.pfIssued += r.PrefetchIssued
	c.pfUseful += r.PrefetchUseful
}

// report adds the per-layer simulated counts, grouped by layer.
func (c *simCounts) report(r *report) {
	f := func(x uint64) float64 { return float64(x) }
	r.add("sim.cycles", f(c.cycles), "cycles")
	r.add("sim.skip_frac", ratio(f(c.skipped), f(c.cycles)), "ratio")

	r.add("cpu.ipc", ratio(c.ipcSum, float64(c.runs)), "instr/cycle")
	r.add("cpu.rob_full_frac", ratio(f(c.robFull), f(c.coreCycles)), "ratio")
	r.add("cpu.full_window_frac", ratio(f(c.fullWindow), f(c.coreCycles)), "ratio")
	r.add("cpu.dep_miss_frac", ratio(f(c.depMissLoads), f(c.llcMissLoads)), "ratio")
	r.add("cpu.chains_generated", f(c.chains), "count")
	r.add("cpu.avg_chain_uops", ratio(f(c.chainUops), f(c.chains)), "uops")

	r.add("cache.llc_hit_rate", ratio(f(c.llcHits), f(c.llcHits+c.llcMisses)), "ratio")
	r.add("cache.llc_misses", f(c.llcMisses), "count")

	r.add("dram.reads", f(c.dramReads), "count")
	r.add("dram.writes", f(c.dramWrites), "count")
	r.add("dram.row_conflict_rate", ratio(f(c.rowConflicts), f(c.rowAccesses)), "ratio")
	r.add("dram.queue_delay_cyc", ratio(f(c.queueDelay), f(c.dramReads)), "cycles")
	r.add("dram.read_latency_cyc", ratio(f(c.readLatency), f(c.dramReads)), "cycles")
	r.add("dram.bus_util", ratio(f(c.busBusy), f(c.busCycles)), "ratio")
	r.add("dram.queue_full", f(c.queueFull), "count")

	r.add("interconnect.msgs", f(c.msgs), "count")
	r.add("interconnect.hops_per_msg", ratio(f(c.hops), f(c.msgs)), "hops")
	r.add("interconnect.miss_transit_cyc", ratio(f(c.transit), f(c.transitN)), "cycles")

	r.add("emc.chains_installed", f(c.emcInstalled), "count")
	r.add("emc.reject_frac", ratio(f(c.emcRejected), f(c.emcInstalled+c.emcRejected)), "ratio")
	r.add("emc.abort_frac", ratio(f(c.emcAborted), f(c.emcInstalled)), "ratio")
	r.add("emc.miss_frac", ratio(f(c.emcReads), f(c.emcReads+c.demandReads)), "ratio")
	r.add("emc.cache_hit_rate", ratio(f(c.emcCacheHits), f(c.emcCacheHits+c.emcCacheMisses)), "ratio")
	r.add("emc.miss_latency_cyc", ratio(f(c.emcMissTotal), f(c.emcMissCount)), "cycles")

	r.add("prefetch.issued", f(c.pfIssued), "count")
	r.add("prefetch.accuracy", ratio(f(c.pfUseful), f(c.pfIssued)), "ratio")
}
