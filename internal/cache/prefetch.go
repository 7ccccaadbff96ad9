package cache

import (
	"math/bits"

	"rsepsim/internal/ckpt"
)

// Prefetcher observes demand accesses and proposes prefetch target addresses.
type Prefetcher interface {
	// Observe is called on each demand access with the address, the
	// requesting PC (0 if unknown) and whether the access missed. It
	// returns the addresses to prefetch (possibly none).
	Observe(addr, pc uint64, miss bool) []uint64
	// Reset clears all learned state in place, as if freshly constructed.
	Reset()
	// Walk hands the learned state to a checkpoint stream (see ckpt.go).
	Walk(s *ckpt.Stream)
}

// StridePrefetcher is the per-PC stride prefetcher attached to the L1D
// (Table I: "Stride prefetcher (degree 1)"). It tracks the last address and
// stride per load PC and, once the stride is confirmed, issues degree
// prefetches starting distance strides ahead (lookahead covers the memory
// latency; degree stays 1 as in Table I).
type StridePrefetcher struct {
	entries  []strideEntry
	mask     uint64 // len(entries)-1 when a power of two, else 0 (modulo path)
	degree   int
	distance int64
	scratch  []uint64
}

type strideEntry struct {
	pc     uint64
	last   uint64
	stride int64
	conf   uint8
	valid  bool
}

// NewStride returns a stride prefetcher with the given table size and degree
// and a default lookahead distance of 16 strides.
func NewStride(entries, degree int) *StridePrefetcher {
	s := &StridePrefetcher{entries: make([]strideEntry, entries), degree: degree, distance: 16}
	if entries > 0 && entries&(entries-1) == 0 {
		s.mask = uint64(entries) - 1
	}
	return s
}

// Reset implements Prefetcher.
func (s *StridePrefetcher) Reset() { clear(s.entries) }

// Observe implements Prefetcher.
func (s *StridePrefetcher) Observe(addr, pc uint64, _ bool) []uint64 {
	if pc == 0 {
		return nil
	}
	slot := pc >> 2
	if s.mask != 0 {
		slot &= s.mask
	} else {
		slot %= uint64(len(s.entries))
	}
	e := &s.entries[slot]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, last: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.last)
	e.last = addr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	s.scratch = s.scratch[:0]
	next := int64(addr) + stride*s.distance
	for i := 0; i < s.degree; i++ {
		if next > 0 {
			s.scratch = append(s.scratch, uint64(next))
		}
		next += stride
	}
	return s.scratch
}

// StreamPrefetcher is the sequential stream prefetcher attached to L2 and L3
// (Table I: "Stream prefetcher (degree 1)"). It detects ascending or
// descending line streams within 4KB regions and prefetches the next line(s)
// of a confirmed stream on each miss.
//
// Stream state lives in dense parallel arrays (lastLine<<1|1 keys, 0 =
// invalid). The per-miss candidate search is index-driven: a stream's
// direction is always ±1 (allocation starts at +1 and every extension sets
// dir to the matched ±1 step), so a miss at line can only extend a stream
// whose lastLine is line-1 or line+1. A small hash table over lastLine keys
// maps each of those two values to a bitmask of candidate streams, replacing
// the linear scan over every stream with two bucket reads; candidates are
// verified against the exact match predicate, so hash collisions cost a
// check, never a wrong match. Tables larger than 32 streams fall back to the
// plain scan (the bitmask is 32 bits wide).
type StreamPrefetcher struct {
	lastLine []uint64 // line<<1|1, 0 = invalid
	dir      []int64  // +1 or -1
	conf     []uint8
	lru      []uint64
	idx      []uint32 // hash bucket -> bitmask of streams whose lastLine hashes there
	idxShift uint8
	degree   int
	clock    uint64
	filled   int
	scratch  []uint64
}

// NewStream returns a stream prefetcher tracking the given number of
// concurrent streams.
func NewStream(streams, degree int) *StreamPrefetcher {
	s := &StreamPrefetcher{
		lastLine: make([]uint64, streams),
		dir:      make([]int64, streams),
		conf:     make([]uint8, streams),
		lru:      make([]uint64, streams),
		degree:   degree,
	}
	if streams <= 32 {
		bbits := 4
		for 1<<bbits < 4*streams {
			bbits++
		}
		s.idx = make([]uint32, 1<<bbits)
		s.idxShift = uint8(64 - bbits)
	}
	return s
}

func (s *StreamPrefetcher) bucket(line uint64) uint64 {
	return (line * 0x9e3779b97f4a7c15) >> s.idxShift
}

// reindex moves stream i's index entry from key old to key new (either may
// be 0 = none). The clear must precede the set so an old and new key landing
// in the same bucket keeps the bit.
func (s *StreamPrefetcher) reindex(i int, old, new uint64) {
	if s.idx == nil {
		return
	}
	if old != 0 {
		s.idx[s.bucket(old>>1)] &^= 1 << uint(i)
	}
	if new != 0 {
		s.idx[s.bucket(new>>1)] |= 1 << uint(i)
	}
}

// Reset implements Prefetcher.
func (s *StreamPrefetcher) Reset() {
	clear(s.lastLine)
	clear(s.dir)
	clear(s.conf)
	clear(s.lru)
	clear(s.idx)
	s.clock = 0
	s.filled = 0
}

// extend advances stream i to line with step d and returns the prefetch
// targets (nil below the confidence threshold). Shared by both search paths.
func (s *StreamPrefetcher) extend(i int, line uint64, d int64) []uint64 {
	s.dir[i] = d
	s.reindex(i, s.lastLine[i], line<<1|1)
	s.lastLine[i] = line<<1 | 1
	s.lru[i] = s.clock
	if s.conf[i] < 3 {
		s.conf[i]++
	}
	if s.conf[i] < 2 {
		return nil
	}
	s.scratch = s.scratch[:0]
	next := int64(line) + d*4 // run ahead of the stream
	for k := 0; k < s.degree; k++ {
		if next >= 0 {
			s.scratch = append(s.scratch, uint64(next)<<lineShift)
		}
		next += d
	}
	return s.scratch
}

// matches reports whether stream i extends to line, and the step if so.
func (s *StreamPrefetcher) matches(i int, line uint64) (int64, bool) {
	ll := s.lastLine[i]
	if ll == 0 {
		return 0, false
	}
	d := int64(line) - int64(ll>>1)
	if d == s.dir[i] || (s.conf[i] == 0 && (d == 1 || d == -1)) {
		return d, true
	}
	return 0, false
}

// Observe implements Prefetcher.
func (s *StreamPrefetcher) Observe(addr, _ uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	line := addr >> lineShift
	s.clock++

	// Find a stream this miss extends. With the index: the only possible
	// matches have lastLine = line∓1 (dir is ±1 by construction), so two
	// bucket reads yield every candidate; iterating the mask low-bit-first
	// preserves the historical lowest-index match priority.
	if s.idx != nil {
		cand := s.idx[s.bucket(line-1)] | s.idx[s.bucket(line+1)]
		for cand != 0 {
			i := bits.TrailingZeros32(cand)
			cand &= cand - 1
			if d, ok := s.matches(i, line); ok {
				return s.extend(i, line, d)
			}
		}
	} else {
		for i := range s.lastLine {
			if d, ok := s.matches(i, line); ok {
				return s.extend(i, line, d)
			}
		}
	}

	// Allocate a new stream: the first invalid slot — which is index filled,
	// since streams never invalidate and fills claim the lowest invalid
	// index, so valid slots form the prefix [0, filled) — else the LRU
	// victim.
	var victim int
	if s.filled < len(s.lastLine) {
		victim = s.filled
		s.filled++
	} else {
		victim = 0
		for i, l := range s.lru {
			if l < s.lru[victim] {
				victim = i
			}
		}
	}
	s.reindex(victim, s.lastLine[victim], line<<1|1)
	s.lastLine[victim] = line<<1 | 1
	s.dir[victim] = 1
	s.conf[victim] = 0
	s.lru[victim] = s.clock
	return nil
}

// TLB is a fully associative, LRU translation buffer. Translation is
// identity (the workloads use flat addressing); only timing matters: a miss
// charges the page-walk penalty. Entries are stored as two dense parallel
// arrays — page<<1|1 keys (0 = invalid) and last-touch clocks — so the
// associative scan and the LRU victim scan each stream one small array.
type TLB struct {
	pages []uint64 // page<<1|1, 0 = invalid
	lru   []uint64
	// present is a counting filter over hashed page numbers: a zero slot
	// proves the page is not resident, so the (miss-dominated on pointer
	// chases) associative scan can be skipped. Counts never exceed the
	// entry count, which is far below 255.
	present []uint8
	walk    uint64
	clock   uint64
	mru     int    // index of the most recent hit
	mruKey  uint64 // pages[mru], folded out so the hit fast path loads no array
	filled  int    // valid entries; once == len(pages) the invalid scan is dead

	Accesses, Misses uint64
}

const (
	pageShift     = 12
	tlbFilterMask = 511
)

// NewTLB returns a TLB with the given entry count and page-walk latency.
func NewTLB(entries int, walkLatency uint64) *TLB {
	return &TLB{
		pages:   make([]uint64, entries),
		lru:     make([]uint64, entries),
		present: make([]uint8, tlbFilterMask+1),
		walk:    walkLatency,
	}
}

// Lookup translates addr, returning the extra latency incurred (0 on hit).
func (t *TLB) Lookup(addr uint64) uint64 {
	page := addr >> pageShift
	key := page<<1 | 1
	t.Accesses++
	t.clock++
	// MRU fast path: mruKey mirrors pages[mru], so the check reads no array.
	// Sound because a hit returns before the full scan's victim selection
	// ever matters, and victims are only chosen on a miss.
	if t.mruKey == key {
		t.lru[t.mru] = t.clock
		return 0
	}
	// The filter proves absence: only scan when the page might be resident.
	if t.present[page&tlbFilterMask] != 0 {
		for i, p := range t.pages {
			if p == key {
				t.lru[i] = t.clock
				t.mru = i
				t.mruKey = key
				return 0
			}
		}
	}
	// Miss: the last invalid entry wins (matching the historical one-pass
	// scan). Entries never invalidate and every fill claims the highest
	// invalid index, so the invalid region is the prefix [0, len-filled) by
	// construction and the victim is its last element — no scan. A full
	// TLB falls back to the lowest-clock valid entry.
	victim := -1
	if t.filled < len(t.pages) {
		victim = len(t.pages) - t.filled - 1
	}
	if victim < 0 {
		// Two passes beat the index-tracking one: minimum-of-values compiles
		// to branch-free compare-and-move, and the first index holding the
		// minimum is exactly the first-minimum the one-pass scan chose.
		min := t.lru[0]
		for _, l := range t.lru[1:] {
			if l < min {
				min = l
			}
		}
		for i, l := range t.lru {
			if l == min {
				victim = i
				break
			}
		}
	} else {
		t.filled++
	}
	t.Misses++
	if old := t.pages[victim]; old != 0 {
		t.present[(old>>1)&tlbFilterMask]--
	}
	t.present[page&tlbFilterMask]++
	t.pages[victim] = key
	t.lru[victim] = t.clock
	t.mru = victim
	t.mruKey = key
	return t.walk
}

// Reset clears all translations and statistics in place.
func (t *TLB) Reset() {
	clear(t.pages)
	clear(t.lru)
	clear(t.present)
	t.clock, t.mru, t.filled = 0, 0, 0
	t.mruKey = 0
	t.Accesses, t.Misses = 0, 0
}
