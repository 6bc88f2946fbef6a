package sim

import (
	"strings"
	"testing"

	"repro/internal/mem/cache"
)

func smallCfg(benchmarks []string) Config {
	cfg := Default(benchmarks)
	cfg.InstrPerCore = 4000
	cfg.MaxCycles = 5_000_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSingleBenchmarkBaseline(t *testing.T) {
	r := mustRun(t, smallCfg([]string{"mcf", "mcf", "mcf", "mcf"}))
	if r.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	for i, c := range r.Cores {
		if c.Stats.Retired != 4000 {
			t.Errorf("core %d retired %d, want 4000", i, c.Stats.Retired)
		}
		if c.IPC <= 0 || c.IPC > 4 {
			t.Errorf("core %d IPC %v out of range", i, c.IPC)
		}
	}
	if r.Sys.LLCMisses == 0 {
		t.Error("mcf should miss in the LLC")
	}
	if r.Sys.DepMisses == 0 {
		t.Error("mcf should have dependent misses")
	}
	if r.Sys.DRAMDemandReads == 0 {
		t.Error("demand reads should reach DRAM")
	}
	if r.Energy.Total() <= 0 {
		t.Error("energy must be positive")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := mustRun(t, smallCfg([]string{"omnetpp", "milc"}))
	b := mustRun(t, smallCfg([]string{"omnetpp", "milc"}))
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.Cores {
		if a.Cores[i].IPC != b.Cores[i].IPC {
			t.Errorf("core %d IPC differs", i)
		}
	}
	if a.Sys != b.Sys {
		t.Error("system stats differ between identical runs")
	}
}

func TestRunWithEMC(t *testing.T) {
	cfg := smallCfg([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.EMCEnabled = true
	cfg.InstrPerCore = 8000
	r := mustRun(t, cfg)
	var chains, aborts uint64
	for _, c := range r.Cores {
		chains += c.Stats.ChainsGenerated
		aborts += c.Stats.ChainAborts
	}
	if chains == 0 {
		t.Fatal("EMC run generated no chains on mcf")
	}
	var done uint64
	var mism uint64
	for _, e := range r.EMC {
		done += e.ChainsDone
		mism += e.AddrMismatches
	}
	if done == 0 {
		t.Error("no chains completed at the EMC")
	}
	if mism != 0 {
		t.Errorf("EMC computed %d wrong addresses; value consistency broken", mism)
	}
	if r.Sys.DRAMEMCReads == 0 && r.Sys.EMCLLCHits == 0 {
		t.Error("EMC should have issued memory requests")
	}
}

// TestEMCLatencyAdvantage checks the paper's central latency claim (Fig. 18):
// misses generated by the EMC observe substantially lower latency than
// misses generated by the core, and the EMC run stays within run-to-run
// noise of the baseline on IPC at these short warmup-dominated lengths.
func TestEMCLatencyAdvantage(t *testing.T) {
	base := smallCfg([]string{"mcf", "mcf", "mcf", "mcf"})
	base.InstrPerCore = 12000
	withEMC := base
	withEMC.EMCEnabled = true
	rb := mustRun(t, base)
	re := mustRun(t, withEMC)
	if re.Sys.EMCMissCount == 0 {
		t.Fatal("EMC issued no requests")
	}
	if re.EMCMissLatency() >= re.CoreMissLatency() {
		t.Errorf("EMC misses should be faster: emc=%.1f core=%.1f",
			re.EMCMissLatency(), re.CoreMissLatency())
	}
	// The paper reports ~20% lower latency; require at least 10%.
	if re.EMCMissLatency() > 0.9*re.CoreMissLatency() {
		t.Errorf("EMC latency advantage too small: emc=%.1f core=%.1f",
			re.EMCMissLatency(), re.CoreMissLatency())
	}
	if re.AvgIPC() < 0.93*rb.AvgIPC() {
		t.Errorf("EMC run regressed beyond noise: base %.4f, EMC %.4f",
			rb.AvgIPC(), re.AvgIPC())
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	base := smallCfg([]string{"libquantum", "libquantum", "libquantum", "libquantum"})
	base.InstrPerCore = 8000
	pf := base
	pf.Prefetcher = PFStream
	rb := mustRun(t, base)
	rp := mustRun(t, pf)
	if rp.AvgIPC() <= rb.AvgIPC() {
		t.Errorf("stream prefetcher should help libquantum: %.4f vs %.4f",
			rb.AvgIPC(), rp.AvgIPC())
	}
	if rp.PrefetchIssued == 0 || rp.PrefetchUseful == 0 {
		t.Error("prefetches should be issued and useful")
	}
}

func TestIdealDependentHitsFaster(t *testing.T) {
	base := smallCfg([]string{"mcf", "mcf", "mcf", "mcf"})
	base.InstrPerCore = 8000
	ideal := base
	ideal.IdealDependentHits = true
	rb := mustRun(t, base)
	ri := mustRun(t, ideal)
	if ri.Sys.IdealDepHits == 0 {
		t.Fatal("ideal mode should have idealized some misses")
	}
	if ri.AvgIPC() <= rb.AvgIPC() {
		t.Errorf("idealizing dependent misses must help mcf: %.4f vs %.4f",
			rb.AvgIPC(), ri.AvgIPC())
	}
}

func TestEightCoreConfigs(t *testing.T) {
	bench := []string{"mcf", "omnetpp", "libquantum", "bwaves", "mcf", "omnetpp", "libquantum", "bwaves"}
	one := smallCfg(bench)
	one.InstrPerCore = 3000
	one.EMCEnabled = true
	r1 := mustRun(t, one)
	if len(r1.DRAM) != 1 {
		t.Fatalf("expected 1 controller, got %d", len(r1.DRAM))
	}

	two := one
	two.MCs = 2
	r2 := mustRun(t, two)
	if len(r2.DRAM) != 2 {
		t.Fatalf("expected 2 controllers, got %d", len(r2.DRAM))
	}
	var reads uint64
	for _, d := range r2.DRAM {
		reads += d.Reads
	}
	if reads == 0 {
		t.Error("dual-MC system served no reads")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := Default([]string{"mcf"}); c.MCs = 3; return c }(),
		func() Config { c := Default([]string{"mcf"}); c.InstrPerCore = 0; return c }(),
		func() Config { c := Default([]string{"mcf"}); c.Prefetcher = "bogus"; return c }(),
		Default([]string{"mcf", "notabench", "lbm", "milc"}),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if _, err := New(Default([]string{"notabench"})); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

// TestValidateRejectsTooManyCores: a benchmark list past MaxCores is refused
// by Validate — the check New runs before allocating any core — while a
// MaxCores-wide system still validates.
func TestValidateRejectsTooManyCores(t *testing.T) {
	many := func(n int) Config {
		b := make([]string, n)
		for i := range b {
			b[i] = "mcf"
		}
		return Default(b)
	}
	if MaxCores < 8 {
		t.Fatalf("MaxCores %d cannot hold Fig. 14's eight-core runs", MaxCores)
	}
	widest := many(MaxCores)
	if err := widest.Validate(); err != nil {
		t.Fatalf("%d cores rejected: %v", MaxCores, err)
	}
	for _, n := range []int{MaxCores + 1, 170_000} {
		cfg := many(n)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "core limit") {
			t.Errorf("%d cores: Validate = %v, want the core-limit error", n, err)
		}
	}
}

// TestPresenceMaskCoversMaxCores: the highest core a System can have keeps
// its presence bit through SetPresence, Presence and the eviction Victim
// that drives the inclusive L1 invalidation. (config.go's constant
// assertion stops the build if MaxCores outgrows the mask.)
func TestPresenceMaskCoversMaxCores(t *testing.T) {
	top := MaxCores - 1
	want := uint64(1)<<top | 1
	c := cache.New(cache.Config{Name: "llc", SizeBytes: 2 * cache.LineSize, Ways: 2}) // one set
	const a, b, d = 0, cache.LineSize, 2 * cache.LineSize
	c.Insert(a, false)
	c.SetPresence(a, top, true)
	c.SetPresence(a, 0, true)
	if got := c.Presence(a); got != want {
		t.Fatalf("Presence = %#x, want %#x", got, want)
	}
	c.Insert(b, false)
	v := c.Insert(d, false) // evicts a, the least recently used
	if !v.Valid || v.LineAddr != cache.LineAddr(a) || v.Presence != want {
		t.Fatalf("victim %+v, want line %#x with presence %#x", v, cache.LineAddr(a), want)
	}
	c.Insert(a, false)
	c.SetPresence(a, top, true)
	c.SetPresence(a, top, false)
	if got := c.Presence(a); got != 0 {
		t.Fatalf("Presence after clearing core %d = %#x, want 0", top, got)
	}
}

func TestLatencySegmentsConsistent(t *testing.T) {
	r := mustRun(t, smallCfg([]string{"milc", "milc", "milc", "milc"}))
	if r.Sys.CoreMissCount == 0 {
		t.Fatal("no core misses measured")
	}
	sum := r.Sys.CoreMissDRAM + r.Sys.CoreMissQueue + r.Sys.CoreMissRingReq + r.Sys.CoreMissRingRsp
	if sum > r.Sys.CoreMissTotal {
		t.Errorf("latency segments (%d) exceed total (%d)", sum, r.Sys.CoreMissTotal)
	}
	if r.CoreMissLatency() < float64(r.Config.Timing.TCAS) {
		t.Errorf("miss latency %.1f below DRAM CAS %d", r.CoreMissLatency(), r.Config.Timing.TCAS)
	}
}

// TestNoAddressMismatches asserts the central functional invariant across
// several workloads and seeds: every address the EMC computes from live-in
// register values matches the trace exactly.
func TestNoAddressMismatches(t *testing.T) {
	for _, bench := range [][]string{
		{"mcf", "mcf", "mcf", "mcf"},
		{"mcf", "sphinx3", "soplex", "libquantum"},
		{"omnetpp", "omnetpp", "omnetpp", "omnetpp"},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := smallCfg(bench)
			cfg.InstrPerCore = 8000
			cfg.Seed = seed
			cfg.EMCEnabled = true
			r := mustRun(t, cfg)
			for _, e := range r.EMC {
				if e.AddrMismatches != 0 {
					t.Errorf("%v seed=%d: %d address mismatches", bench, seed, e.AddrMismatches)
				}
			}
		}
	}
}

func TestMissLatencyHistogram(t *testing.T) {
	r := mustRun(t, smallCfg([]string{"mcf", "mcf", "mcf", "mcf"}))
	h := &r.Sys.CoreMissHist
	if h.Count() != r.Sys.CoreMissCount {
		t.Errorf("histogram count %d != miss count %d", h.Count(), r.Sys.CoreMissCount)
	}
	// The histogram's mean must agree with the counter-based average.
	if diff := h.Mean() - r.CoreMissLatency(); diff > 0.5 || diff < -0.5 {
		t.Errorf("histogram mean %.2f != avg %.2f", h.Mean(), r.CoreMissLatency())
	}
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Error("p99 below p50")
	}
}

// TestMagicChainsCeiling exercises the MagicChains diagnostic mode: with
// chains completing instantly at the controller, the serialized
// pointer-chasing workload must speed up substantially — the upper bound the
// real EMC approaches. This guards the workload's serialization property
// (if chase traversals regress into overlappable episodes, this bound
// collapses and the EMC has nothing to accelerate).
func TestMagicChainsCeiling(t *testing.T) {
	b := []string{"mcf", "mcf", "mcf", "mcf"}
	base := smallCfg(b)
	base.InstrPerCore = 15000
	rb := mustRun(t, base)
	magic := base
	magic.EMCEnabled = true
	magic.MagicChains = true
	rm := mustRun(t, magic)
	gain := rm.AvgIPC()/rb.AvgIPC() - 1
	if gain < 0.08 {
		t.Errorf("magic-chain ceiling too low: %+.1f%% (want >= 8%%)", 100*gain)
	}
}

func TestTLBShootdownPropagation(t *testing.T) {
	cfg := smallCfg([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.EMCEnabled = true
	cfg.InstrPerCore = 8000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Find a page resident in the EMC TLB for core 0 (chains install them).
	var resident uint64
	for vaddr := uint64(0x2_0000_0000); vaddr < 0x2_0300_0000; vaddr += 1 << 21 {
		if sys.mcs[0].emc != nil && sys.mcs[0].emc.TLB(0).Resident(vaddr) {
			resident = vaddr
			break
		}
	}
	if resident == 0 {
		t.Skip("no chase page resident at the EMC in this short run")
	}
	pte := sys.pts[0].Lookup(resident)
	if !pte.EMCResident {
		t.Fatal("residence bit out of sync with EMC TLB")
	}
	sys.Shootdown(0, resident)
	if sys.mcs[0].emc.TLB(0).Resident(resident) {
		t.Error("shootdown did not reach the EMC TLB")
	}
	if pte.EMCResident {
		t.Error("shootdown did not clear the residence bit")
	}
}

// TestRunaheadGeneratesMLP: runahead must issue prefetches and not regress
// functional correctness; on workloads with independent misses beyond the
// window it should help or at least not hurt beyond noise.
func TestRunaheadGeneratesMLP(t *testing.T) {
	cfg := smallCfg([]string{"milc", "milc", "milc", "milc"})
	cfg.InstrPerCore = 10000
	rb := mustRun(t, cfg)
	cfg.RunaheadEnabled = true
	rr := mustRun(t, cfg)
	var pf uint64
	for i := range rr.Cores {
		pf += rr.Cores[i].Stats.Retired // retired must be intact
	}
	if pf != 4*cfg.InstrPerCore {
		t.Fatalf("runahead corrupted retirement: %d", pf)
	}
	var eps, issued uint64
	_ = eps
	if rr.Sys.DRAMPrefetch == 0 {
		t.Error("runahead should reach DRAM with prefetches")
	}
	issued = rr.Sys.DRAMPrefetch
	if issued == 0 {
		t.Error("no runahead prefetches issued")
	}
	if rr.AvgIPC() < 0.95*rb.AvgIPC() {
		t.Errorf("runahead regressed: %.4f vs %.4f", rr.AvgIPC(), rb.AvgIPC())
	}
}

// TestRunaheadPlusEMC: the mechanisms are complementary (runahead covers
// independent misses, the EMC dependent ones) and must compose without
// breaking invariants.
func TestRunaheadPlusEMC(t *testing.T) {
	cfg := smallCfg([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.InstrPerCore = 10000
	cfg.RunaheadEnabled = true
	cfg.EMCEnabled = true
	r := mustRun(t, cfg)
	for _, e := range r.EMC {
		if e.AddrMismatches != 0 {
			t.Errorf("address mismatches with runahead+EMC: %d", e.AddrMismatches)
		}
	}
	var chains uint64
	for _, c := range r.Cores {
		chains += c.Stats.ChainsGenerated
	}
	if chains == 0 {
		t.Error("EMC chains should still generate alongside runahead")
	}
}

// TestHybridPredictorSystem: the organic predictor produces sane emergent
// mispredict rates on real traces (biased loop branches dominate, so rates
// land well below chance) and the run completes normally.
func TestHybridPredictorSystem(t *testing.T) {
	cfg := smallCfg([]string{"mcf", "gcc", "milc", "sjeng"})
	cfg.InstrPerCore = 8000
	cfg.UseBranchPredictor = true
	r := mustRun(t, cfg)
	for i, c := range r.Cores {
		if c.Stats.Branches == 0 {
			continue
		}
		rate := float64(c.Stats.Mispredicts) / float64(c.Stats.Branches)
		if rate > 0.35 {
			t.Errorf("core %d (%s): emergent mispredict rate %.2f unrealistically high",
				i, c.Benchmark, rate)
		}
	}
}

// TestCrossMCPath: with two compute-capable controllers, chains whose
// dependent lines live on the other controller's channels issue EMC-to-EMC
// (§4.4) rather than bouncing through the home core.
func TestCrossMCPath(t *testing.T) {
	bench := []string{"mcf", "mcf", "mcf", "mcf", "mcf", "mcf", "mcf", "mcf"}
	cfg := smallCfg(bench)
	cfg.InstrPerCore = 6000
	cfg.MCs = 2
	cfg.EMCEnabled = true
	r := mustRun(t, cfg)
	if r.Sys.CrossMCRequests == 0 {
		t.Error("dual-MC EMC run should produce cross-controller requests")
	}
	var mism uint64
	for _, e := range r.EMC {
		mism += e.AddrMismatches
	}
	if mism != 0 {
		t.Errorf("cross-MC execution broke address consistency: %d", mism)
	}
}

func TestSummaryRendering(t *testing.T) {
	cfg := smallCfg([]string{"mcf", "milc"})
	cfg.EMCEnabled = true
	r := mustRun(t, cfg)
	s := r.Summary()
	for _, want := range []string{"avgIPC=", "mcf", "milc", "dram:", "energy:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
