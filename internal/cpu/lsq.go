package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem/cache"
)

// issueLoad runs the load pipeline: memory ordering against older stores,
// store-to-load forwarding, TLB translation, L1D lookup, and on a miss an
// MSHR allocation plus an uncore request. Returns false when the load had to
// be parked (unresolved older store, MSHR pressure).
func (c *Core) issueLoad(idx int32) bool {
	e := c.slot(idx)
	e.vaddr = isa.AddrOf(&e.u, e.srcVal[0])

	// Memory ordering: scan older stores. An older store with an unresolved
	// address blocks the load (conservative disambiguation); a resolved
	// older store to the same dword forwards its data.
	var forwardFrom *robEntry
	for _, sIdx := range c.sq {
		if c.seq[sIdx] >= c.seq[idx] {
			break
		}
		if c.storeUnresolved(sIdx) {
			// Remote stores (executing at the EMC) resolve via the
			// address-ring message; until then they block younger loads like
			// any unresolved store.
			c.blockStore[idx] = sIdx
			c.blockSeq[idx] = c.seq[sIdx]
			c.parkLoad(idx)
			return false
		}
		if se := c.slot(sIdx); c.addrValid[sIdx] && se.vaddr == e.vaddr {
			forwardFrom = se // youngest older match wins
		}
	}
	if forwardFrom != nil {
		e.forwarded = true
		e.val = forwardFrom.val
		c.Stats.StoreForwards++
		c.schedule(idx, c.now+2)
		return true
	}

	paddr, tlbLat := c.translate(e.vaddr)
	e.paddr = paddr
	c.addrValid[idx] = true

	if c.l1d.Access(paddr, false) {
		e.val = e.u.Value
		e.taint = false // L1 hits launder miss taint
		c.schedule(idx, c.now+uint64(c.cfg.L1Latency+tlbLat))
		return true
	}
	if !e.l1Counted {
		e.l1Counted = true
		c.Stats.L1DMisses++
	}
	e.taint = false // set by NoteLLCMiss if the LLC also misses
	line := cache.LineAddr(paddr)
	m, merged, ok := c.msh.Allocate(line, c.now)
	if !ok {
		c.parkDirty = true // an MSHR-parked load retries every cycle
		c.parkLoad(idx)
		return false
	}
	m.Waiters = append(m.Waiters, uint64(idx))
	if !merged {
		c.Stats.L1MissRequests++
		c.uncore.LoadMiss(&MissInfo{
			CoreID:    c.cfg.ID,
			LineAddr:  line,
			VAddr:     e.vaddr,
			PC:        e.u.PC,
			IssuedAt:  c.now,
			Dependent: e.srcTaint[0],
		})
	}
	return true
}

// NoteLLCMiss informs the core that an outstanding line request missed the
// LLC and is headed for DRAM. Loads waiting on the line become LLC misses:
// their results are tainted (dependents of this load are dependent misses),
// and loads whose own address was tainted are counted as dependent misses
// and train the dependence counter's producers.
func (c *Core) NoteLLCMiss(lineAddr uint64) {
	m := c.msh.Lookup(lineAddr)
	if m == nil {
		return
	}
	for _, w := range m.Waiters {
		idx := int32(w)
		e := c.slot(idx)
		if c.st[idx] != stIssued || c.ops[idx] != isa.OpLoad || cache.LineAddr(e.paddr) != lineAddr {
			continue
		}
		e.isLLCMiss = true
		e.taint = true
		e.taintSrc = idx
		e.taintSeq = c.seq[idx]
		c.Stats.LLCMissLoads++
		// Counter training (§4.2) happens here, when the LLC outcome is
		// known: a dependent miss is direct evidence that misses are having
		// dependent misses; a non-dependent miss is the counter-evidence.
		// (Retire-time training is impossible in practice: a source miss
		// retires within a cycle or two of its fill, long before its
		// dependent load can issue and be classified.)
		if e.srcTaint[0] {
			e.wasDependent = true
			c.Stats.DependentMissLoads++
			// Asymmetric update: dependent misses are the rare, decisive
			// evidence; one burst of streaming misses must not erase them.
			c.bumpDepCounter(2)
			if p := e.srcTaintSrc[0]; p >= 0 {
				if c.st[p] != stEmpty && c.seq[p] == e.srcTaintSeq[0] {
					c.slot(p).producedDepMiss = true
				}
			}
		} else {
			c.bumpDepCounter(-1)
		}
	}
}

// storeUnresolved reports whether the store queue entry in slot sIdx still
// has an unknown address (it blocks younger loads under conservative
// disambiguation).
func (c *Core) storeUnresolved(sIdx int32) bool {
	st := c.st[sIdx]
	return st == stWaiting || st == stReady ||
		(st == stIssued && !c.addrValid[sIdx])
}

// parkLoad returns a load to the blocked list; it re-enters the ready queue
// on the next retry sweep that finds the list dirty (see Core.parkDirty).
func (c *Core) parkLoad(idx int32) {
	c.st[idx] = stReady
	c.memBlocked[idx] = true
	c.rsCount++ // it still occupies its RS entry
	c.blockedLd = append(c.blockedLd, idx)
}

// retryBlockedLoads re-queues a dirty parked list for issue, load by load,
// and marks the emptied list clean. A clean list stays parked; issue()
// settles it.
func (c *Core) retryBlockedLoads() {
	if !c.parkDirty {
		return
	}
	c.parkDirty = false
	list := c.blockedLd
	c.blockedLd = c.blockedLd[:0]
	for _, idx := range list {
		if c.st[idx] != stReady || !c.memBlocked[idx] {
			continue
		}
		c.memBlocked[idx] = false
		c.readyQ = append(c.readyQ, idx)
	}
}
