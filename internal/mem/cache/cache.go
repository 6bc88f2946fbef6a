// Package cache provides the set-associative cache structures of the
// simulated hierarchy: L1 instruction/data caches, the distributed shared
// LLC slices with their inclusive directory (including the extra per-line
// EMC presence bit from §4.1.3 of the paper), the EMC's 4 KB data cache, and
// MSHR files for tracking outstanding misses.
//
// Caches here are structural: they answer hit/miss, maintain LRU state,
// directory bits and dirtiness. Latency and occupancy are modeled by the
// callers (core, LLC slice, EMC), which know where the cache sits.
package cache

import (
	"fmt"
	"math/bits"
)

// LineShift and LineSize fix the 64-byte line geometry of Table 1.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// LineAddr converts a byte address to a line address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	// Latency is the access latency in core cycles; carried here for the
	// callers' convenience (the cache itself is untimed).
	Latency int
	// WriteThrough marks the cache as write-through/no-write-allocate
	// (the paper's L1s); otherwise write-back/write-allocate (the LLC).
	WriteThrough bool
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Fills      uint64
}

// PresenceBits is the width of a line's core-presence mask: the most cores
// an inclusive directory can track.
const PresenceBits = 16

// line is packed to 24 bytes: the two words first, then the mask and the
// flags, which share the last word.
type line struct {
	tag  uint64
	used uint64

	// Inclusive-directory state, used only by LLC slices.
	presence uint16 // bitmask of cores holding the line in an L1

	valid bool
	dirty bool
	emc   bool // the paper's extra bit: line is held by the EMC cache
	pf    bool // line was brought in by a prefetch, not yet demanded
}

// Cache is a set-associative cache with true LRU replacement. The ways of
// set s are lines[s*Ways : (s+1)*Ways].
type Cache struct {
	cfg      Config
	lines    []line
	mask     uint64
	tagShift uint // log2 of the set count: line address >> tagShift = tag
	tick     uint64

	Stats Stats
}

// New builds a cache from cfg. It panics on degenerate geometry since all
// configurations are static (Table 1).
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry", cfg.Name))
	}
	nLines := cfg.SizeBytes / LineSize
	nSets := nLines / cfg.Ways
	if nSets == 0 {
		nSets = 1
	}
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nSets))
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nSets*cfg.Ways),
		mask:     uint64(nSets - 1),
		tagShift: uint(bits.TrailingZeros(uint(nSets))),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the configured access latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

func (c *Cache) set(lineAddr uint64) []line {
	w := c.cfg.Ways
	base := int(lineAddr&c.mask) * w
	return c.lines[base : base+w : base+w]
}

func (c *Cache) find(lineAddr uint64) *line {
	set := c.set(lineAddr)
	tag := lineAddr >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Access looks up the line containing addr, updating LRU and dirty state.
// For write-through caches a write miss does not allocate (the caller
// forwards the write down); a write hit leaves the line clean because the
// write is propagated immediately.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	c.tick++
	la := LineAddr(addr)
	if l := c.find(la); l != nil {
		l.used = c.tick
		if write && !c.cfg.WriteThrough {
			l.dirty = true
		}
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Probe reports whether the line is present without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool { return c.find(LineAddr(addr)) != nil }

// Occupancy returns the number of valid lines (a live gauge for the
// observability layer; called at publish cadence, not per access).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// ProbeDirty reports presence and dirtiness without side effects.
func (c *Cache) ProbeDirty(addr uint64) (present, dirty bool) {
	l := c.find(LineAddr(addr))
	if l == nil {
		return false, false
	}
	return true, l.dirty
}

// Victim describes a line evicted by Insert.
type Victim struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
	Presence uint64
	EMC      bool
}

// Insert fills the line containing addr, returning the evicted victim (if
// any). dirty marks the fill as modified (write-allocate of a write miss).
func (c *Cache) Insert(addr uint64, dirty bool) Victim {
	c.tick++
	la := LineAddr(addr)
	if l := c.find(la); l != nil {
		// Already present (e.g. racing fills); just update state.
		l.used = c.tick
		if dirty {
			l.dirty = true
		}
		return Victim{}
	}
	set := c.set(la)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].used < victim.used {
			victim = &set[i]
		}
	}
	var out Victim
	if victim.valid {
		out = Victim{
			LineAddr: c.lineAddrOf(victim, la),
			Dirty:    victim.dirty,
			Valid:    true,
			Presence: uint64(victim.presence),
			EMC:      victim.emc,
		}
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.Writebacks++
		}
	}
	*victim = line{
		tag:   la >> c.tagShift,
		used:  c.tick,
		valid: true,
		dirty: dirty,
	}
	c.Stats.Fills++
	return out
}

// lineAddrOf reconstructs the full line address of a resident way given any
// line address that maps to the same set.
func (c *Cache) lineAddrOf(l *line, sameSet uint64) uint64 {
	return l.tag<<c.tagShift | (sameSet & c.mask)
}

// Invalidate removes the line containing addr, reporting whether it was
// present and dirty (so the caller can write it back).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	l := c.find(LineAddr(addr))
	if l == nil {
		return false, false
	}
	d := l.dirty
	*l = line{}
	return true, d
}

// --- Inclusive-directory operations (LLC slices only) ----------------------

// SetPresence records that core (below PresenceBits) holds the line in its
// L1.
func (c *Cache) SetPresence(addr uint64, core int, on bool) {
	if l := c.find(LineAddr(addr)); l != nil {
		if on {
			l.presence |= 1 << uint(core)
		} else {
			l.presence &^= 1 << uint(core)
		}
	}
}

// Presence returns the core-presence bitmask for the line, or 0.
func (c *Cache) Presence(addr uint64) uint64 {
	if l := c.find(LineAddr(addr)); l != nil {
		return uint64(l.presence)
	}
	return 0
}

// SetEMCBit records that the EMC's data cache holds the line (§4.1.3: one
// extra bit per directory entry).
func (c *Cache) SetEMCBit(addr uint64, on bool) {
	if l := c.find(LineAddr(addr)); l != nil {
		l.emc = on
	}
}

// EMCBit reports whether the EMC holds the line.
func (c *Cache) EMCBit(addr uint64) bool {
	if l := c.find(LineAddr(addr)); l != nil {
		return l.emc
	}
	return false
}

// SetPrefetched marks a resident line as prefetched (not yet demanded).
func (c *Cache) SetPrefetched(addr uint64, on bool) {
	if l := c.find(LineAddr(addr)); l != nil {
		l.pf = on
	}
}

// TakePrefetched reports whether the line carries the prefetched bit and
// clears it — the "first demand touch of a prefetched line" event that
// feeds FDP accuracy and the coverage figures.
func (c *Cache) TakePrefetched(addr uint64) bool {
	if l := c.find(LineAddr(addr)); l != nil && l.pf {
		l.pf = false
		return true
	}
	return false
}

// MarkDirty sets the dirty bit of a resident line (e.g. write-through
// traffic arriving at the LLC, or an EMC store draining).
func (c *Cache) MarkDirty(addr uint64) bool {
	if l := c.find(LineAddr(addr)); l != nil {
		l.dirty = true
		return true
	}
	return false
}
