package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B = 512B
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, Latency: 3})
}

// TestLinePacked: a line stays 24 bytes (two words, then the presence mask
// and four flags in the third), a third of the LLC's footprint saved over
// the unpacked 40-byte layout.
func TestLinePacked(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 24 {
		t.Fatalf("line is %d bytes, want 24", n)
	}
}

func TestHitMissBasics(t *testing.T) {
	c := small()
	if c.Access(0x1000, false) {
		t.Fatal("cold cache should miss")
	}
	c.Insert(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("filled line should hit")
	}
	if !c.Access(0x103F, false) {
		t.Fatal("same line, different offset should hit")
	}
	if c.Access(0x1040, false) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets, 2 ways; stride of 4 lines maps to same set
	const stride = 4 * LineSize
	a0, a1, a2 := uint64(0), uint64(stride), uint64(2*stride)
	c.Insert(a0, false)
	c.Insert(a1, false)
	c.Access(a0, false) // a0 now MRU
	v := c.Insert(a2, false)
	if !v.Valid || v.LineAddr != LineAddr(a1) {
		t.Fatalf("expected eviction of a1, got %+v", v)
	}
	if !c.Probe(a0) || !c.Probe(a2) || c.Probe(a1) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	wb := New(Config{Name: "wb", SizeBytes: 512, Ways: 2})
	wb.Insert(0x0, false)
	wb.Access(0x0, true) // dirty it
	const stride = 4 * LineSize
	wb.Insert(stride, false)
	v := wb.Insert(2*stride, false)
	if !v.Valid || !v.Dirty {
		t.Errorf("dirty victim expected, got %+v", v)
	}
	if wb.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", wb.Stats.Writebacks)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	wt := New(Config{Name: "wt", SizeBytes: 512, Ways: 2, WriteThrough: true})
	wt.Insert(0x0, false)
	wt.Access(0x0, true)
	if _, dirty := wt.ProbeDirty(0x0); dirty {
		t.Error("write-through cache must not mark lines dirty on write hits")
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := small()
	c.Insert(0x80, false)
	v := c.Insert(0x80, true)
	if v.Valid {
		t.Error("re-insert must not evict")
	}
	if _, dirty := c.ProbeDirty(0x80); !dirty {
		t.Error("re-insert with dirty must dirty the line")
	}
	if c.Occupancy() != 1 {
		t.Errorf("lines = %d, want 1", c.Occupancy())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Name: "c", SizeBytes: 512, Ways: 2})
	c.Insert(0x40, false)
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(0x40) {
		t.Error("line should be gone")
	}
	if p, _ := c.Invalidate(0x40); p {
		t.Error("double invalidate should report absent")
	}
}

func TestDirectoryBits(t *testing.T) {
	c := small()
	c.Insert(0x1000, false)
	c.SetPresence(0x1000, 2, true)
	c.SetPresence(0x1000, 0, true)
	if c.Presence(0x1000) != 0b101 {
		t.Errorf("presence = %b, want 101", c.Presence(0x1000))
	}
	c.SetPresence(0x1000, 2, false)
	if c.Presence(0x1000) != 0b001 {
		t.Errorf("presence = %b, want 001", c.Presence(0x1000))
	}
	if c.EMCBit(0x1000) {
		t.Error("EMC bit should start clear")
	}
	c.SetEMCBit(0x1000, true)
	if !c.EMCBit(0x1000) {
		t.Error("EMC bit should be set")
	}
	// Victim carries directory state out for invalidation messages.
	const stride = 4 * LineSize
	base := uint64(0x1000)
	c.Insert(base+stride, false)
	v := c.Insert(base+2*stride, false)
	if !v.Valid || v.LineAddr != LineAddr(base) || !v.EMC || v.Presence != 0b001 {
		t.Errorf("victim should carry directory bits: %+v", v)
	}
}

func TestMarkDirty(t *testing.T) {
	c := small()
	if c.MarkDirty(0x40) {
		t.Error("MarkDirty on absent line should fail")
	}
	c.Insert(0x40, false)
	if !c.MarkDirty(0x40) {
		t.Error("MarkDirty on resident line should succeed")
	}
	if _, d := c.ProbeDirty(0x40); !d {
		t.Error("line should be dirty")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Fill a specific set with two far-apart addresses and check the victim
	// line address is reconstructed exactly.
	c := New(Config{Name: "c", SizeBytes: 8192, Ways: 2}) // 64 sets
	a := uint64(0x12345000)
	b := a + 64*LineSize
	d := a + 128*LineSize
	c.Insert(a, false)
	c.Insert(b, false)
	v := c.Insert(d, false)
	if !v.Valid || v.LineAddr != LineAddr(a) {
		t.Errorf("victim line %#x, want %#x", v.LineAddr, LineAddr(a))
	}
}

// Property: inserting then probing any address hits, and the cache never
// exceeds its capacity in resident lines.
func TestInsertProbeProperty(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 4096, Ways: 4})
	capLines := 4096 / LineSize
	f := func(addr uint64) bool {
		c.Insert(addr, false)
		return c.Probe(addr) && c.Occupancy() <= capLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 0, Ways: 1})
}

func TestMSHRFile(t *testing.T) {
	f := NewMSHRFile(2)
	m1, merged, ok := f.Allocate(10, 100)
	if !ok || merged || m1 == nil || m1.Born != 100 {
		t.Fatalf("first allocate wrong: %v %v %v", m1, merged, ok)
	}
	m1b, merged, ok := f.Allocate(10, 105)
	if !ok || !merged || m1b != m1 {
		t.Fatal("same-line allocate should merge")
	}
	if f.Merges != 1 {
		t.Errorf("merges = %d, want 1", f.Merges)
	}
	f.Allocate(20, 101)
	if !f.Full() {
		t.Error("file should be full")
	}
	if _, _, ok := f.Allocate(30, 102); ok {
		t.Error("allocate past capacity should fail")
	}
	if f.AllocFails != 1 {
		t.Errorf("allocFails = %d, want 1", f.AllocFails)
	}
	if got := f.Complete(10); got == nil || got.LineAddr != 10 || got.Born != 100 {
		t.Errorf("complete returned %+v, want the line-10 entry", got)
	}
	if f.Lookup(10) != nil {
		t.Error("completed entry should be gone")
	}
	if f.Len() != 1 {
		t.Errorf("len = %d, want 1", f.Len())
	}
	if f.Complete(99) != nil {
		t.Error("complete of unknown line should return nil")
	}
}

func TestPrefetchedBit(t *testing.T) {
	c := small()
	c.Insert(0x200, false)
	if c.TakePrefetched(0x200) {
		t.Error("fresh line should not carry the prefetched bit")
	}
	c.SetPrefetched(0x200, true)
	if !c.TakePrefetched(0x200) {
		t.Error("prefetched bit should be set")
	}
	if c.TakePrefetched(0x200) {
		t.Error("TakePrefetched must clear the bit")
	}
	c.SetPrefetched(0x7777, true) // absent line: no-op
	if c.TakePrefetched(0x7777) {
		t.Error("absent line cannot be prefetched")
	}
}
