package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

// runaheadTrace: a blocking miss, a dependent load (must NOT be prefetched —
// its address is poisoned), and several independent far loads beyond the
// window (MUST be prefetched).
func runaheadTrace() []isa.Uop {
	var uops []isa.Uop
	add := func(u isa.Uop) {
		u.Seq = uint64(len(uops))
		u.PC = 0x400000 + uint64(len(uops)%16*4)
		uops = append(uops, u)
	}
	add(movImm(1, 0x4000000))
	// Blocking source miss.
	add(isa.Uop{Op: isa.OpLoad, Src1: 1, Src2: isa.RegNone, Dst: 2,
		Addr: 0x4000000, Value: 0x5000000})
	// Dependent load: base is the missing value -> INV at runahead.
	add(isa.Uop{Op: isa.OpLoad, Src1: 2, Src2: isa.RegNone, Dst: 3,
		Addr: 0x5000000, Value: 1})
	// Independent bases.
	add(movImm(4, 0x6000000))
	add(movImm(5, 0x7000000))
	// Window filler.
	for i := 0; i < 300; i++ {
		add(isa.Uop{Op: isa.OpAdd, Src1: 0, Src2: isa.RegNone, Dst: 0, Imm: 1})
	}
	// Beyond the 256-entry window: independent loads runahead must find.
	add(isa.Uop{Op: isa.OpLoad, Src1: 4, Src2: isa.RegNone, Dst: 6,
		Addr: 0x6000000, Value: 2})
	add(isa.Uop{Op: isa.OpLoad, Src1: 5, Src2: isa.RegNone, Dst: 7,
		Addr: 0x7000000, Value: 3})
	for i := 0; i < 20; i++ {
		add(isa.Uop{Op: isa.OpAdd, Src1: 0, Src2: isa.RegNone, Dst: 0, Imm: 1})
	}
	return uops
}

func TestRunaheadPrefetchesIndependentLoads(t *testing.T) {
	uops := runaheadTrace()
	c, fu := buildCore(t, uops, 400, func(cfg *Config) {
		cfg.Runahead.Enabled = true
		cfg.Runahead.Depth = 400
	})
	var prefetched []uint64
	for cy := uint64(1); cy < 5000; cy++ {
		fu.tick(cy)
		// Intercept prefetches recorded by the fake uncore: a prefetch is a
		// LoadMiss with Prefetch set; the fake uncore fills it like a demand.
		c.Tick(cy)
		if c.Finished() {
			break
		}
	}
	if c.RunaheadStats.Episodes == 0 {
		t.Fatal("runahead never triggered")
	}
	if c.RunaheadStats.Prefetches == 0 {
		t.Fatal("runahead issued no prefetches")
	}
	if c.RunaheadStats.Poisoned == 0 {
		t.Error("the dependent load should have been poisoned")
	}
	_ = prefetched
}

// prefetchRecorder wraps fakeUncore to log prefetch line addresses.
type prefetchRecorder struct {
	*fakeUncore
	prefetchLines []uint64
}

func (p *prefetchRecorder) LoadMiss(m MissInfo) {
	if m.Prefetch {
		p.prefetchLines = append(p.prefetchLines, m.LineAddr)
		return // prefetches fill the LLC; the core sees nothing
	}
	p.fakeUncore.LoadMiss(m)
}

func TestRunaheadTargetsExactlyIndependents(t *testing.T) {
	uops := runaheadTrace()
	cfg := DefaultConfig(0)
	cfg.Runahead.Enabled = true
	cfg.Runahead.Depth = 400
	fu := &fakeUncore{latency: 400}
	rec := &prefetchRecorder{fakeUncore: fu}
	pt := vm.NewPageTableShift(0, vm.NewFrameAllocator(), vm.LargePageShift)
	c := New(cfg, &trace.SliceReader{Uops: uops}, pt, rec)
	fu.core = c
	for cy := uint64(1); cy < 6000 && !c.Finished(); cy++ {
		fu.tick(cy)
		c.Tick(cy)
	}
	if len(rec.prefetchLines) == 0 {
		t.Fatal("no prefetches recorded")
	}
	// The independent loads' lines (0x6000000, 0x7000000 translated) must be
	// prefetched; the dependent line (0x5000000) must NOT.
	want1 := pt.Translate(0x6000000) >> 6
	want2 := pt.Translate(0x7000000) >> 6
	banned := pt.Translate(0x5000000) >> 6
	got := map[uint64]bool{}
	for _, l := range rec.prefetchLines {
		got[l] = true
	}
	if !got[want1] || !got[want2] {
		t.Errorf("independent lines not prefetched: %v", rec.prefetchLines)
	}
	if got[banned] {
		t.Error("dependent line was prefetched — INV poisoning broken")
	}
}

func TestPeekFeed(t *testing.T) {
	us := []isa.Uop{{Seq: 0}, {Seq: 1}, {Seq: 2}}
	f := newPeekFeed(&trace.SliceReader{Uops: us})
	if u, ok := f.Peek(1); !ok || u.Seq != 1 {
		t.Fatalf("Peek(1) = %v ok=%v", u, ok)
	}
	if u, ok := f.Next(); !ok || u.Seq != 0 {
		t.Fatalf("Next after Peek = %v ok=%v", u, ok)
	}
	if u, ok := f.Peek(0); !ok || u.Seq != 1 {
		t.Fatalf("Peek(0) after Next = %v ok=%v", u, ok)
	}
	if _, ok := f.Peek(5); ok {
		t.Error("Peek past end should fail")
	}
	f.Next()
	f.Next()
	if _, ok := f.Next(); ok {
		t.Error("feed should be exhausted")
	}
}
