package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fakeUncore serves every line request after a fixed latency and can report
// LLC misses for designated lines.
type fakeUncore struct {
	core     *Core
	latency  uint64
	llcMiss  map[uint64]bool // line -> report as LLC miss (default true)
	fills    []fill
	requests int
	stores   int
}

type fill struct {
	line uint64
	at   uint64
}

func (f *fakeUncore) LoadMiss(m MissInfo) {
	f.requests++
	miss := true
	if f.llcMiss != nil {
		miss = f.llcMiss[m.LineAddr]
	}
	if miss {
		// Report the LLC outcome a little later, like a real slice lookup.
		f.fills = append(f.fills, fill{line: m.LineAddr, at: m.IssuedAt + f.latency})
		f.core.NoteLLCMiss(m.LineAddr)
	} else {
		f.fills = append(f.fills, fill{line: m.LineAddr, at: m.IssuedAt + 20})
	}
}

func (f *fakeUncore) StoreWrite(int, uint64, uint64) { f.stores++ }

func (f *fakeUncore) tick(now uint64) {
	for i := 0; i < len(f.fills); {
		if f.fills[i].at <= now {
			f.core.Fill(f.fills[i].line, now)
			f.fills = append(f.fills[:i], f.fills[i+1:]...)
		} else {
			i++
		}
	}
}

// buildCore wires a core to a trace slice and a fake memory.
func buildCore(t *testing.T, uops []isa.Uop, missLatency uint64, tweak func(*Config)) (*Core, *fakeUncore) {
	t.Helper()
	cfg := DefaultConfig(0)
	if tweak != nil {
		tweak(&cfg)
	}
	fu := &fakeUncore{latency: missLatency, llcMiss: nil}
	pt := vm.NewPageTableShift(0, vm.NewFrameAllocator(), vm.LargePageShift)
	c := New(cfg, &trace.SliceReader{Uops: uops}, pt, fu)
	fu.core = c
	return c, fu
}

// runCore ticks until the core finishes or maxCycles elapse.
func runCore(t *testing.T, c *Core, fu *fakeUncore, maxCycles uint64) {
	t.Helper()
	for cy := uint64(1); cy <= maxCycles; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if c.Finished() {
			return
		}
	}
	t.Fatalf("core did not finish in %d cycles (retired %d)", maxCycles, c.Stats.Retired)
}

func movImm(dst isa.Reg, v uint64) isa.Uop {
	return isa.Uop{Op: isa.OpMov, Src1: isa.RegNone, Src2: isa.RegNone, Dst: dst, Imm: int64(v)}
}

func TestALUOnlyTrace(t *testing.T) {
	uops := []isa.Uop{
		movImm(1, 5),
		movImm(2, 7),
		{Op: isa.OpAdd, Src1: 1, Src2: 2, Dst: 3},
		{Op: isa.OpShl, Src1: 3, Src2: isa.RegNone, Dst: 4, Imm: 2},
		{Op: isa.OpXor, Src1: 4, Src2: 3, Dst: 5},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i*4)
	}
	c, fu := buildCore(t, uops, 100, nil)
	runCore(t, c, fu, 1000)
	if c.Stats.Retired != 5 {
		t.Fatalf("retired %d, want 5", c.Stats.Retired)
	}
	if got := c.archVal[3]; got != 12 {
		t.Errorf("r3 = %d, want 12", got)
	}
	if got := c.archVal[4]; got != 48 {
		t.Errorf("r4 = %d, want 48", got)
	}
	if got := c.archVal[5]; got != 48^12 {
		t.Errorf("r5 = %d, want %d", got, 48^12)
	}
}

func TestLoadMissAndFill(t *testing.T) {
	uops := []isa.Uop{
		movImm(1, 0x10000),
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2, Imm: 8,
			Addr: 0x10008, Value: 0xBEEF},
		{Op: isa.OpAdd, Src1: 2, Src2: isa.RegNone, Dst: 3, Imm: 1},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i*4)
	}
	c, fu := buildCore(t, uops, 150, nil)
	runCore(t, c, fu, 2000)
	if c.archVal[2] != 0xBEEF || c.archVal[3] != 0xBEF0 {
		t.Errorf("load value flow wrong: r2=%#x r3=%#x", c.archVal[2], c.archVal[3])
	}
	if fu.requests != 1 {
		t.Errorf("expected 1 miss request, got %d", fu.requests)
	}
	if c.Stats.LLCMissLoads != 1 {
		t.Errorf("LLCMissLoads = %d, want 1", c.Stats.LLCMissLoads)
	}
	// The miss should dominate runtime.
	if c.Stats.Cycles < 150 {
		t.Errorf("finished too fast (%d cycles) for a 150-cycle miss", c.Stats.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	uops := []isa.Uop{
		movImm(1, 0x20000),
		movImm(2, 0x1234),
		{Op: isa.OpStore, Src1: 1, Src2: 2, Imm: 0, Addr: 0x20000, Value: 0x1234},
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 3, Imm: 0,
			Addr: 0x20000, Value: 0x1234},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i*4)
	}
	c, fu := buildCore(t, uops, 500, nil)
	runCore(t, c, fu, 2000)
	if c.Stats.StoreForwards != 1 {
		t.Errorf("store forwards = %d, want 1", c.Stats.StoreForwards)
	}
	if c.archVal[3] != 0x1234 {
		t.Errorf("forwarded value wrong: %#x", c.archVal[3])
	}
	if fu.requests != 0 {
		t.Errorf("forwarded load must not reach memory, got %d requests", fu.requests)
	}
	if fu.stores != 1 {
		t.Errorf("retired store should drain to uncore, got %d", fu.stores)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	mk := func(mispredict bool) uint64 {
		uops := []isa.Uop{movImm(1, 1)}
		uops = append(uops, isa.Uop{Op: isa.OpBranch, Src1: 1, Src2: isa.RegNone,
			Dst: isa.RegNone, Taken: true, Mispredicted: mispredict})
		for i := 0; i < 20; i++ {
			uops = append(uops, isa.Uop{Op: isa.OpAdd, Src1: 1, Src2: isa.RegNone, Dst: 2, Imm: 1})
		}
		for i := range uops {
			uops[i].Seq = uint64(i)
			uops[i].PC = 0x400000 + uint64(i*4)
		}
		c, fu := buildCore(t, uops, 100, nil)
		runCore(t, c, fu, 2000)
		return c.Stats.Cycles
	}
	good, bad := mk(false), mk(true)
	if bad <= good {
		t.Errorf("mispredicted branch should cost cycles: %d vs %d", good, bad)
	}
	if bad-good < 10 {
		t.Errorf("mispredict penalty too small: %d", bad-good)
	}
}

// chaseTrace builds a miss -> ALU chain -> dependent miss window, padded so
// the instruction window fills (the chain-generation trigger).
func chaseTrace() []isa.Uop {
	var uops []isa.Uop
	add := func(u isa.Uop) {
		u.Seq = uint64(len(uops))
		// PCs loop within one cache line, like a hot loop body, so the
		// I-cache warms immediately and the window can fill.
		u.PC = 0x400000 + uint64(len(uops)%16*4)
		uops = append(uops, u)
	}
	add(movImm(1, 0x4000000)) // head pointer
	// Source miss: load r2 = [r1]. Value = 0x5000000 - 0x18 so the chain
	// computes the dependent address 0x5000000.
	add(isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
		Addr: 0x4000000, Value: 0x5000000 - 0x18})
	// Chain: mov r3=r2; add r4=r3+0x18 (the Fig. 5 shape).
	add(isa.Uop{Op: isa.OpMov, Src1: 2, Src2: isa.RegNone, Dst: 3})
	add(isa.Uop{Op: isa.OpAdd, Src1: 3, Src2: isa.RegNone, Dst: 4, Imm: 0x18})
	// Dependent miss: load r5 = [r4].
	add(isa.Uop{Op: isa.OpLoad, Src1: 4, Src2: isa.RegNone, Dst: 5,
		Addr: 0x5000000, Value: 0x99})
	// Dependent ALU consumer.
	add(isa.Uop{Op: isa.OpAdd, Src1: 5, Src2: isa.RegNone, Dst: 6, Imm: 1})
	// Padding to fill the window: long independent filler.
	for i := 0; i < 400; i++ {
		add(isa.Uop{Op: isa.OpAdd, Src1: 7, Src2: isa.RegNone, Dst: 7, Imm: 1})
	}
	return uops
}

// primeDepCounter raises the 3-bit counter so chain generation can trigger.
func primeDepCounter(c *Core) {
	for i := 0; i < 4; i++ {
		c.bumpDepCounter(2)
	}
}

func TestChainGeneration(t *testing.T) {
	uops := chaseTrace()
	c, fu := buildCore(t, uops, 400, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)

	var ch *Chain
	for cy := uint64(1); cy < 600 && ch == nil; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		ch = c.TakeReadyChain(cy)
	}
	if ch == nil {
		t.Fatal("no chain generated")
	}
	// Chain: source load, mov, add, dependent load (+ its ALU consumer).
	if len(ch.Uops) < 4 {
		t.Fatalf("chain too short: %d uops", len(ch.Uops))
	}
	if ch.Uops[0].U.Op != isa.OpLoad || ch.Uops[0].U.Addr != 0x4000000 {
		t.Errorf("chain must start with the source miss, got %v", ch.Uops[0].U)
	}
	// RRT renaming: EPRs are allocated in order starting at 0.
	if ch.Uops[0].DstEPR != 0 {
		t.Errorf("source dst EPR = %d, want 0", ch.Uops[0].DstEPR)
	}
	if ch.Uops[1].U.Op != isa.OpMov || ch.Uops[1].Src[0].Kind != ChainSrcEPR || ch.Uops[1].Src[0].Idx != 0 {
		t.Errorf("mov must read EPR0, got %+v", ch.Uops[1])
	}
	if ch.Uops[2].U.Op != isa.OpAdd || ch.Uops[2].Src[0].Kind != ChainSrcEPR || ch.Uops[2].Src[0].Idx != 1 {
		t.Errorf("add must read EPR1, got %+v", ch.Uops[2])
	}
	dep := ch.Uops[3]
	if dep.U.Op != isa.OpLoad || dep.U.Addr != 0x5000000 {
		t.Errorf("dependent load missing, got %v", dep.U)
	}
	// Live-in 0 is the source load's base register value.
	if len(ch.LiveIns) == 0 || ch.LiveIns[0] != 0x4000000 {
		t.Errorf("live-in 0 = %#x, want source base", ch.LiveIns)
	}
	if ch.GenCycles != len(ch.Uops) {
		t.Errorf("generation latency %d, want %d (1/uop)", ch.GenCycles, len(ch.Uops))
	}
	if ch.Bytes() != 6*len(ch.Uops)+8*len(ch.LiveIns) {
		t.Error("transfer size formula wrong")
	}
}

func TestChainCompleteRemotely(t *testing.T) {
	uops := chaseTrace()
	c, fu := buildCore(t, uops, 400, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)

	var ch *Chain
	for cy := uint64(1); cy < 3000; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if ch == nil {
			if ch = c.TakeReadyChain(cy); ch != nil {
				// Simulate the EMC executing the chain: compute values.
				vals := make([]uint64, len(ch.Uops))
				vals[0] = ch.Uops[0].U.Value
				vals[1] = vals[0]
				vals[2] = vals[1] + 0x18
				for i := 3; i < len(vals); i++ {
					if ch.Uops[i].U.Op == isa.OpLoad {
						vals[i] = ch.Uops[i].U.Value
					} else {
						vals[i] = vals[i-1] + uint64(ch.Uops[i].U.Imm)
					}
				}
				c.CompleteRemoteChain(ch, vals, cy+50)
			}
		}
		if c.Finished() {
			break
		}
	}
	if ch == nil {
		t.Fatal("no chain generated")
	}
	if !c.Finished() {
		t.Fatal("core did not finish after remote completion")
	}
	if c.Stats.RemoteCompleted == 0 {
		t.Error("no uops completed remotely")
	}
	// The dependent load's consumer saw the remote value.
	if c.archVal[6] != 0x99+1 {
		t.Errorf("r6 = %#x, want %#x", c.archVal[6], 0x99+1)
	}
}

func TestChainAbortRevertsToLocal(t *testing.T) {
	uops := chaseTrace()
	c, fu := buildCore(t, uops, 300, func(cfg *Config) { cfg.EMCEnabled = true })
	primeDepCounter(c)

	aborted := false
	for cy := uint64(1); cy < 5000; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if ch := c.TakeReadyChain(cy); ch != nil {
			c.AbortRemoteChain(ch)
			aborted = true
		}
		if c.Finished() {
			break
		}
	}
	if !aborted {
		t.Fatal("no chain was generated/aborted")
	}
	if !c.Finished() {
		t.Fatal("core did not finish after abort (local re-execution broken)")
	}
	if c.Stats.ChainAborts != 1 {
		t.Errorf("aborts = %d, want 1", c.Stats.ChainAborts)
	}
	if c.archVal[6] != 0x99+1 {
		t.Errorf("r6 = %#x after local re-execution, want %#x", c.archVal[6], 0x99+1)
	}
}

// TestFunctionalEquivalence is the core's end-to-end invariant: running a
// real benchmark trace through the full out-of-order pipeline produces
// exactly the architectural register state of the in-order ISS.
func TestFunctionalEquivalence(t *testing.T) {
	for _, bench := range []string{"mcf", "omnetpp", "gcc"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			const n = 3000
			uops := trace.Generate(trace.MustByName(bench), 77, n)
			iss := trace.NewISS()
			for i := range uops {
				if err := iss.Step(&uops[i]); err != nil {
					t.Fatal(err)
				}
			}
			c, fu := buildCore(t, uops, 120, nil)
			runCore(t, c, fu, 4_000_000)
			if c.Stats.Retired != n {
				t.Fatalf("retired %d, want %d", c.Stats.Retired, n)
			}
			for r := 0; r < isa.NumArchRegs; r++ {
				if c.archVal[r] != iss.Regs[r] {
					t.Errorf("r%d = %#x, ISS has %#x", r, c.archVal[r], iss.Regs[r])
				}
			}
		})
	}
}

func TestDependentMissTaint(t *testing.T) {
	uops := chaseTrace()
	c, fu := buildCore(t, uops, 200, nil)
	runCore(t, c, fu, 5000)
	if c.Stats.DependentMissLoads != 1 {
		t.Errorf("dependent misses = %d, want 1 (the chained load)", c.Stats.DependentMissLoads)
	}
	if c.Stats.LLCMissLoads != 2 {
		t.Errorf("LLC misses = %d, want 2", c.Stats.LLCMissLoads)
	}
}

func TestDepCounterSaturation(t *testing.T) {
	c, _ := buildCore(t, nil, 100, nil)
	for i := 0; i < 100; i++ {
		c.bumpDepCounter(1)
	}
	if c.depCounter != 7 {
		t.Errorf("counter = %d, want saturation at 7", c.depCounter)
	}
	for i := 0; i < 100; i++ {
		c.bumpDepCounter(-1)
	}
	if c.depCounter != 0 {
		t.Errorf("counter = %d, want floor at 0", c.depCounter)
	}
	if c.DepCounterHigh() {
		t.Error("counter at 0 must not be high")
	}
	c.bumpDepCounter(2)
	if !c.DepCounterHigh() {
		t.Error("counter at 2 must be high (top two bits)")
	}
}

func TestRemoteMemExecutedConflict(t *testing.T) {
	// An older RESOLVED store to the same address must flag a conflict
	// immediately; an unresolved one must not (late disambiguation catches
	// it when the store's address computes).
	uops := []isa.Uop{
		movImm(1, 0x30000),
		movImm(2, 7),
		{Op: isa.OpStore, Src1: 1, Src2: 2, Imm: 0, Addr: 0x30000, Value: 7},
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 3, Imm: 0, Addr: 0x30000, Value: 7},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i%16*4)
	}
	c, fu := buildCore(t, uops, 100, nil)
	for cy := uint64(1); cy <= 100 && len(c.lq) == 0; cy++ {
		fu.tick(cy)
		c.Tick(cy)
	}
	if len(c.lq) == 0 {
		t.Fatal("load never dispatched")
	}
	loadSlot := c.lq[0]
	// Let the store resolve its address.
	for cy := uint64(101); cy <= 120; cy++ {
		fu.tick(cy)
		c.Tick(cy)
	}
	if !c.RemoteMemExecuted(loadSlot, 0x30000) {
		t.Error("conflict with a resolved older store should be detected")
	}
	if c.RemoteMemExecuted(loadSlot, 0x99999) {
		t.Error("no conflict expected for a disjoint address")
	}
}

func TestLateDisambiguationCatchesResolvingStore(t *testing.T) {
	// A store whose address resolves AFTER the EMC executed a younger load
	// to the same address must surface the chain via TakeConflictedChains.
	uops := []isa.Uop{
		movImm(1, 0x30000),
		// The store's address depends on a slow load, so it resolves late.
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2, Imm: 0,
			Addr: 0x30000, Value: 0x40000},
		{Op: isa.OpStore, Src1: 2, Src2: 1, Imm: 0, Addr: 0x40000, Value: 0x30000},
		{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 4, Imm: 0x10000,
			Addr: 0x40000, Value: 0x99},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
		uops[i].PC = 0x400000 + uint64(i%16*4)
	}
	c, fu := buildCore(t, uops, 200, func(cfg *Config) { cfg.EMCEnabled = true })
	for cy := uint64(1); cy <= 50 && len(c.lq) < 2; cy++ {
		fu.tick(cy)
		c.Tick(cy)
	}
	if len(c.lq) < 2 {
		t.Fatal("loads never dispatched")
	}
	// Pretend the EMC executed the younger load in a chain.
	ch := &Chain{CoreID: 0}
	le := c.slot(c.lq[1])
	le.inChain = true
	le.chainRef = ch
	if c.RemoteMemExecuted(c.lq[1], 0x40000) {
		t.Fatal("unresolved older store must not conflict yet")
	}
	// Let the slow load fill and the store resolve.
	for cy := uint64(51); cy <= 1000; cy++ {
		fu.tick(cy)
		c.Tick(cy)
		if got := c.TakeConflictedChains(); len(got) == 1 {
			if got[0] != ch {
				t.Fatal("wrong chain flagged")
			}
			return
		}
	}
	t.Fatal("late disambiguation never fired")
}
