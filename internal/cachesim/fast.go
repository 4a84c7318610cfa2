package cachesim

import "fmt"

// This file is the simulator's fast path: an arena-backed LRU whose
// per-access work is one load from a dense line index plus an
// intrusive-list splice, with zero heap allocations per access. The index
// is a flat []int32 addressed by line ID — trace.NewLayout lays operands
// out back to back, so every line ID lies in [0, layout lines) — holding
// the resident slot or a "never seen" / "evicted" sentinel; the first
// sentinel is what classifies compulsory misses. It replaces the
// reference implementation (cache.go) on every hot loop; the reference
// stays behind Impl selection (impl.go) as the differential-testing
// oracle. Both implementations produce bit-identical Stats for every
// trace: LRU replacement with strictly increasing access clocks is
// deterministic, and the fill order of invalid ways cannot affect any
// counted event.

// slot is one cache way in the arena. Slots live in a single flat slice
// indexed by set*ways+way; prev/next link the slot into its set's recency
// list (indices into the same slice, -1 = none), so a hit reorders the set
// with four pointer writes instead of a timestamp scan.
type slot struct {
	line int64 // resident line ID, -1 while the way is invalid
	prev int32 // neighbour toward MRU, -1 at the head
	next int32 // neighbour toward LRU, -1 at the tail
	set  int32 // owning set (precomputed: slots never change sets)
	// reused records whether the resident line hit at least once since it
	// was filled; cleared on every fill (Table III's dead-line metric).
	reused bool
}

// The dense line index holds one int32 per line ID: the resident slot
// plus one, or one of two sentinels. lineNever is the zero value, so a
// freshly allocated (or grown) index needs no fill loop.
const (
	lineNever   = int32(0)  // line never accessed: its next miss is compulsory
	lineEvicted = int32(-1) // line accessed before but not resident
)

// maxLines caps the dense index: line IDs must lie in [0, maxLines). The
// cap is a 4 GiB index covering a 128 GiB address space at 128-byte
// lines, far beyond any trace in this repository, so an ID past it means
// a corrupt trace rather than a bigger workload.
const maxLines = 1 << 30

// minIndex is the smallest dense index allocated, so hint-less callers
// skip the first few doublings.
const minIndex = 1024

// checkLine panics on a line ID the dense indexes cannot hold. Traces
// derived from trace.Layout never trigger it, so a violation is a
// programming error.
func checkLine(line int64) {
	if line < 0 {
		panic(fmt.Sprintf("cachesim: negative line ID %d", line))
	}
	if line >= maxLines {
		panic(fmt.Sprintf("cachesim: line ID %d exceeds the dense index cap of 2^30 lines", line))
	}
}

// FastLRU is the arena-backed fast path of the LRU model: identical
// replacement semantics and Stats to LRU (cache.go), with O(1) hits and
// misses and no per-access allocation. It is the default implementation
// behind SimulateLRU; construct it directly (or via NewSimulator) to
// stream accesses by hand.
//
// Determinism: given the same Config and access sequence, every counter in
// the final Stats is identical run to run and identical to the reference
// implementation's — the differential suite (differential fuzz target and
// corpus test) enforces this.
type FastLRU struct {
	cfg   Config
	sets  int64
	mask  int64 // sets-1 when the set count is a power of two, else -1
	ways  int32
	slots []slot
	head  []int32 // per-set MRU slot index, -1 while the set is empty
	tail  []int32 // per-set LRU slot index
	fill  []int32 // per-set count of valid ways (fills go to slot base+fill)
	// where is the dense line index: where[line] is the resident slot
	// plus one, lineNever, or lineEvicted.
	where []int32
	stats Stats
}

var _ Simulator = (*FastLRU)(nil)

// NewFastLRU builds an empty fast-path cache. sizeHint is the number of
// lines the trace's layout spans, i.e. one past the largest line ID (0 is
// always safe — the index grows by doubling when a larger ID arrives);
// passing the real span makes Access allocation-free from the first touch.
// Hints beyond the index cap are clamped. Panics on an invalid geometry,
// which is always a programming error in this repository.
func NewFastLRU(cfg Config, sizeHint int64) *FastLRU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	total := sets * int64(cfg.Ways)
	c := &FastLRU{
		cfg:   cfg,
		sets:  sets,
		mask:  -1,
		ways:  cfg.Ways,
		slots: make([]slot, total),
		head:  make([]int32, sets),
		tail:  make([]int32, sets),
		fill:  make([]int32, sets),
		where: make([]int32, min(max(sizeHint, minIndex), maxLines)),
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	for i := range c.slots {
		c.slots[i].line = -1
		c.slots[i].set = int32(int64(i) / int64(cfg.Ways))
	}
	for s := range c.head {
		c.head[s] = -1
		c.tail[s] = -1
	}
	c.stats.LineBytes = cfg.LineBytes
	return c
}

// growIndex makes the dense index cover line, doubling its length until
// it does (capped at maxLines). It panics on a negative line ID or one at
// or beyond the cap. New entries are lineNever, the zero value.
func (c *FastLRU) growIndex(line int64) {
	checkLine(line)
	size := int64(len(c.where))
	for size <= line {
		size *= 2
	}
	grown := make([]int32, min(size, maxLines))
	copy(grown, c.where)
	c.where = grown
}

// setOf maps a line ID to its set: a mask for power-of-two set counts, a
// modulo otherwise (the A6000 L2 has 3072 sets).
//
//repro:noalloc
func (c *FastLRU) setOf(line int64) int64 {
	if c.mask >= 0 {
		return line & c.mask
	}
	return line % c.sets
}

// moveToFront splices an already-linked slot to the MRU end of its set.
//
//repro:noalloc
func (c *FastLRU) moveToFront(set int64, si int32) {
	if c.head[set] == si {
		return
	}
	s := &c.slots[si]
	// Unlink. s has a prev because it is not the head.
	c.slots[s.prev].next = s.next
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail[set] = s.prev
	}
	// Relink at the head.
	s.prev = -1
	s.next = c.head[set]
	c.slots[c.head[set]].prev = si
	c.head[set] = si
}

// pushFront links a fresh (previously unlinked) slot at the MRU end.
//
//repro:noalloc
func (c *FastLRU) pushFront(set int64, si int32) {
	s := &c.slots[si]
	s.prev = -1
	s.next = c.head[set]
	if c.head[set] >= 0 {
		c.slots[c.head[set]].prev = si
	} else {
		c.tail[set] = si
	}
	c.head[set] = si
}

// Access touches one cache line (by line ID, i.e. address / LineBytes) and
// reports whether it hit. Line IDs must lie in [0, 2^30); traces derived
// from trace.Layout always do, so a violation panics as a programming
// error. The fast path performs no heap allocation (the dense index grows
// by doubling only when a line ID beyond the construction hint arrives).
//
//repro:noalloc
func (c *FastLRU) Access(line int64) bool {
	if uint64(line) >= uint64(len(c.where)) {
		c.growIndex(line) // also rejects negative IDs, which wrap high
	}
	c.stats.Accesses++
	v := c.where[line]
	if v > 0 {
		c.stats.Hits++
		si := v - 1
		s := &c.slots[si]
		s.reused = true
		c.moveToFront(int64(s.set), si)
		return true
	}
	c.stats.Misses++
	if v == lineNever {
		c.stats.Compulsory++
	}
	set := c.setOf(line)
	var dst int32
	if c.fill[set] < c.ways {
		// Fill an invalid way. The reference implementation fills ways in
		// ascending index order; mirroring it keeps the arenas comparable
		// in tests, though no Stats field can observe the choice.
		dst = int32(set*int64(c.ways)) + c.fill[set]
		c.fill[set]++
		c.pushFront(set, dst)
	} else {
		// Evict the set's LRU slot; its line ID addresses the index entry
		// to invalidate.
		dst = c.tail[set]
		victim := &c.slots[dst]
		c.stats.Evictions++
		if !victim.reused {
			c.stats.DeadFills++
		}
		c.where[victim.line] = lineEvicted
		c.moveToFront(set, dst)
	}
	s := &c.slots[dst]
	s.line = line
	s.reused = false
	c.where[line] = dst + 1
	return false
}

// Finalize folds still-resident never-reused lines into DeadFills and
// returns the final statistics. The receiver can keep streaming accesses
// afterwards; Finalize is a pure read.
//
//repro:noalloc
func (c *FastLRU) Finalize() Stats {
	s := c.stats
	for i := range c.slots {
		if c.slots[i].line != -1 && !c.slots[i].reused {
			s.DeadFills++
		}
	}
	assertCoherent(s)
	return s
}
