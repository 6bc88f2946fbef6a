package cpu

import (
	"testing"

	"repro/internal/isa"
)

// The tests below drive loads parked on an unresolved older store through
// each case where the issue stage cannot settle the whole parked list at
// once and must fall back to re-checking it load by load. The expected
// cycles are the ones the simulator produced when every parked load was
// re-queued and re-checked on every cycle; the parked-list shortcut must not
// move any of them.

// seqTrace numbers uops in program order and keeps their PCs inside one
// I-cache line, so the front end warms immediately.
func seqTrace(uops ...isa.Uop) []isa.Uop {
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i%16*4)
	}
	return uops
}

func load(dst, base isa.Reg, imm int64, addr, val uint64) isa.Uop {
	return isa.Uop{Op: isa.OpLoad, Src1: base, Src2: isa.RegNone, Dst: dst, Imm: imm, Addr: addr, Value: val}
}

func store(base, data isa.Reg, addr, val uint64) isa.Uop {
	return isa.Uop{Op: isa.OpStore, Src1: base, Src2: data, Dst: isa.RegNone, Addr: addr, Value: val}
}

// slotOf returns the ROB slot holding the in-flight uop with trace sequence
// number seq, or -1.
func slotOf(c *Core, seq uint64) int32 {
	for off := 0; off < c.robCount; off++ {
		idx := c.robIndexAt(off)
		if c.slot(idx).u.Seq == seq {
			return idx
		}
	}
	return -1
}

// issueTrace ticks the core until it finishes, calling after (when non-nil)
// once each cycle after the core's Tick, and returns the first cycle at
// which each uop (by trace sequence number) was seen executing or done.
func issueTrace(t *testing.T, c *Core, fu *fakeUncore, max uint64, after func(cy uint64)) map[uint64]uint64 {
	t.Helper()
	seen := map[uint64]uint64{}
	for cy := uint64(1); cy <= max; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if after != nil {
			after(cy)
		}
		for off := 0; off < c.robCount; off++ {
			idx := c.robIndexAt(off)
			if st := c.st[idx]; st == stIssued || st == stDone {
				if s := c.slot(idx).u.Seq; seen[s] == 0 {
					seen[s] = cy
				}
			}
		}
		if c.Finished() {
			return seen
		}
	}
	t.Fatalf("core did not finish in %d cycles (retired %d)", max, c.Stats.Retired)
	return nil
}

// checkCycles compares the issue cycles of the named uops.
func checkCycles(t *testing.T, got map[uint64]uint64, want map[string][2]uint64) {
	t.Helper()
	for name, sw := range want {
		if got[sw[0]] != sw[1] {
			t.Errorf("%s (seq %d) issued at cycle %d, want %d", name, sw[0], got[sw[0]], sw[1])
		}
	}
	if t.Failed() {
		t.Logf("all issue cycles: %v", got)
	}
}

// storeBlockTrace is the shared shape: a slow miss L0 produces the address
// of store S, so S stays unresolved until L0 fills, and the loads after S
// park on it.
func storeBlockTrace(extraOlder []isa.Uop, parked int) []isa.Uop {
	uops := []isa.Uop{movImm(1, 0x30000)}
	uops = append(uops, extraOlder...)
	uops = append(uops,
		load(2, 1, 0, 0x30000, 0x40000), // L0: the slow miss
		store(2, 1, 0x40000, 0x30000),   // S: address from L0
	)
	for i := 0; i < parked; i++ {
		off := uint64(i+1) * 0x100
		uops = append(uops, load(isa.Reg(4+i), 1, int64(off), 0x30000+off, 0x70+uint64(i)))
	}
	return seqTrace(uops...)
}

// TestParkedLoadIssuesWithResolvingStore: the store resolves earlier in the
// same issue scan that reaches its parked loads, so the first of them issues
// in that cycle (on the second memory port) and the rest the next cycle.
func TestParkedLoadIssuesWithResolvingStore(t *testing.T) {
	uops := storeBlockTrace(nil, 3) // seq 1 L0, 2 S, 3-5 parked
	c, fu := buildCore(t, uops, 200, nil)
	got := issueTrace(t, c, fu, 5000, nil)
	checkCycles(t, got, map[string][2]uint64{
		"L0": {1, 33}, "S": {2, 234}, "L1": {3, 234}, "L2": {4, 235}, "L3": {5, 235},
	})
	if got[3] != got[2] {
		t.Errorf("first parked load issued at %d, not with its store at %d", got[3], got[2])
	}
}

// TestParkedListKeptWhenPortsFull: two older loads woken in the same cycle
// take both memory ports before the scan reaches the parked list, so the
// parked loads stay in the ready queue, in order, ahead of later arrivals.
func TestParkedListKeptWhenPortsFull(t *testing.T) {
	older := []isa.Uop{
		load(7, 1, 0x2000, 0x32000, 0x60000), // M: an LLC hit
		load(8, 7, 0, 0x60000, 1),            // A: woken by M
		load(9, 7, 8, 0x60008, 2),            // B: woken by M
	}
	uops := storeBlockTrace(older, 2) // seq 1 M, 2 A, 3 B, 4 L0, 5 S, 6-7 parked
	c, fu := buildCore(t, uops, 300, nil)
	fu.llcMiss = map[uint64]bool{0x30000 >> 6: true} // only L0 goes to DRAM
	kept := uint64(0)
	got := issueTrace(t, c, fu, 5000, func(cy uint64) {
		// Both loads already parked once (blockStore set), now back in the
		// queue instead of the parked list.
		q := c.readyQ
		if kept == 0 && len(q) == 2 && c.slot(q[0]).u.Seq == 6 && c.slot(q[1]).u.Seq == 7 &&
			c.blockStore[q[0]] >= 0 && c.blockStore[q[1]] >= 0 {
			kept = cy
		}
	})
	if kept == 0 {
		t.Fatal("the parked loads were never kept in the ready queue")
	}
	checkCycles(t, got, map[string][2]uint64{
		"M": {1, 33}, "A": {2, 54}, "B": {3, 54}, "L0": {4, 33}, "S": {5, 334}, "L1": {6, 334}, "L2": {7, 335},
	})
	if kept != got[2] || got[2] != got[3] {
		t.Errorf("parked loads kept at %d, want the cycle A and B issued (%d, %d)", kept, got[2], got[3])
	}
}

// TestMSHRParkedLoadRetriesEveryCycle: with one MSHR, a load parked for MSHR
// space shares the parked list with a store-parked load; it retries (and
// counts an allocation failure) on every cycle until the MSHR frees.
func TestMSHRParkedLoadRetriesEveryCycle(t *testing.T) {
	uops := seqTrace(
		movImm(1, 0x30000),
		load(2, 1, 0, 0x30000, 0x40000),   // L0: takes the only MSHR
		load(3, 1, 0x1000, 0x31000, 0x50), // Lm: parks for MSHR space
		store(2, 1, 0x40000, 0x30000),     // S: address from L0
		load(4, 1, 0x100, 0x30100, 0x70),  // L1: parks on S
	)
	c, fu := buildCore(t, uops, 200, func(cfg *Config) { cfg.MSHRs = 1 })
	var failsAt []uint64
	got := issueTrace(t, c, fu, 5000, func(cy uint64) {
		failsAt = append(failsAt, c.msh.AllocFails)
	})
	checkCycles(t, got, map[string][2]uint64{
		"L0": {1, 33}, "Lm": {2, 233}, "S": {3, 234}, "L1": {4, 433},
	})
	if want := uint64(399); c.msh.AllocFails != want {
		t.Errorf("AllocFails = %d, want %d", c.msh.AllocFails, want)
	}
	// While L0 holds the MSHR, Lm fails exactly once per cycle.
	for cy := got[1] + 1; cy < got[2]; cy++ {
		if d := failsAt[cy-1] - failsAt[cy-2]; d != 1 {
			t.Fatalf("cycle %d: %d allocation failures, want 1", cy, d)
		}
	}
}

// TestParkedLoadShippedThenAborted: a parked load is shipped to the EMC in a
// chain and the chain is aborted, either before the core ticks again (the
// load is then both parked and re-queued) or some cycles later.
func TestParkedLoadShippedThenAborted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		abortLag uint64
		want     map[string][2]uint64
	}{
		{"same-cycle", 0, map[string][2]uint64{"L0": {1, 33}, "S": {2, 234}, "L1": {3, 234}, "L2": {4, 235}}},
		{"later", 10, map[string][2]uint64{"L0": {1, 33}, "S": {2, 234}, "L1": {3, 234}, "L2": {4, 235}}},
		{"after-store", 180, map[string][2]uint64{"L0": {1, 33}, "S": {2, 234}, "L1": {3, 241}, "L2": {4, 234}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uops := storeBlockTrace(nil, 2) // seq 1 L0, 2 S, 3-4 parked
			c, fu := buildCore(t, uops, 200, func(cfg *Config) { cfg.EMCEnabled = true })
			var ch *Chain
			shipped, aborted := uint64(0), uint64(0)
			got := issueTrace(t, c, fu, 5000, func(cy uint64) {
				if shipped == 0 && cy >= 60 {
					src, ld := slotOf(c, 1), slotOf(c, 3)
					if ld < 0 || c.st[ld] != stReady || c.blockStore[ld] < 0 {
						t.Fatalf("cycle %d: L1 is not parked on the store", cy)
					}
					c.chains = append(c.chains, &Chain{
						SourceRob: src, SourceSeq: c.seq[src], ReadyAt: cy,
						Uops: []ChainUop{{U: c.slot(src).u, RobIdx: src}, {U: c.slot(ld).u, RobIdx: ld}},
					})
					if ch = c.TakeReadyChain(cy); ch == nil {
						t.Fatalf("cycle %d: chain not shipped", cy)
					}
					shipped = cy
				}
				if ch != nil && aborted == 0 && cy == shipped+tc.abortLag {
					c.AbortRemoteChain(ch)
					aborted = cy
				}
			})
			checkCycles(t, got, tc.want)
			if c.Stats.ChainAborts != 1 {
				t.Errorf("ChainAborts = %d, want 1", c.Stats.ChainAborts)
			}
		})
	}
}
