// Package cache models the three-level cache hierarchy of Table I: L1I/L1D
// 32KB 8-way, private L2 256KB 16-way, shared L3 6MB 24-way, all with 64B
// lines, LRU replacement and 64 MSHRs, plus the stride (L1D) and stream
// (L2/L3) prefetchers and the I/D TLBs.
//
// The model is timing-functional: an access returns the cycle at which the
// data is available. Lines carry a fill time so that requests arriving while
// a miss is outstanding merge with it (MSHR behaviour) instead of hitting
// instantaneously.
//
// The miss path is scan-free (DESIGN.md §3.5): a counting presence filter
// proves absence without walking the set's tags, a per-set fill count makes
// victim selection O(1) until a set is full, and outstanding misses live in a
// ring ordered by fill time so retirement advances a head index and the
// MSHR-full earliest-fill query reads the head — neither walks the set.
package cache

import (
	"fmt"
	"math/bits"

	"rsepsim/internal/dram"
)

const (
	// LineBytes is the cache line size used throughout the hierarchy.
	LineBytes = 64
	lineShift = 6
)

// Backend is anything that can serve a miss (the next cache level or DRAM).
type Backend interface {
	// Access requests the line containing addr at the given cycle and
	// returns the cycle at which the data is available to the requester.
	Access(addr uint64, cycle uint64, write, prefetch bool) uint64
}

// Config sizes one cache level.
type Config struct {
	Name     string
	SizeKB   int
	Ways     int
	Latency  uint64 // hit latency (load-to-use for L1D) in cycles
	MSHRs    int
	Prefetch Prefetcher // optional
}

// pfBit marks a line as prefetched-and-not-yet-demanded inside its packed
// line record: bit 63 of the fill time, which no reachable cycle count ever
// sets. Packing halves the per-line metadata (8 bytes instead of a padded
// 16-byte struct), so the hit path touches half the memory.
const pfBit = uint64(1) << 63

// mshrEnt is one outstanding miss. The live set is kept as a ring sorted by
// (fill, seq): fills are issued with mostly increasing fill times, so
// insertion is an append in the common case, retirement just advances the
// head index, and the MSHR-full path reads the earliest fill at the head.
// With Table I's small MSHR counts that beats a binary heap, whose sift
// swaps dominate at this size. seq records insertion order, which the
// checkpoint walk needs (see ckpt.go).
type mshrEnt struct {
	fill uint64
	addr uint64 // line address
	seq  uint64
}

// maxKey bounds a way's tag key: the line address above the set-index bits
// must be below it, so that key+1 fits 32 bits. That covers 2^38 bytes of
// address space for a single-set cache, 2^44 for Table I's 64-set L1s and
// 2^50 for its L3; the workload generator's addresses sit near 2^28.
const maxKey = 1<<32 - 1

// mruEnt is one set's MRU hint: the most recently hitting way and its tag key
// in one aligned 8-byte record (a single load on the hit path).
type mruEnt struct {
	key uint32
	way uint32
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// lines holds each way's packed record — the fill cycle with pfBit folded
	// into bit 63 — in flat set-major order: set s occupies
	// lines[s*ways : (s+1)*ways].
	lines []uint64
	// tags holds each way's tag key (see key; 0 = invalid) and lru its
	// last-touch tick, both parallel to lines. Together with lines a way
	// costs 16 bytes. A hit not caught by the MRU hint scans tags; a miss is
	// proven by the presence filter in one array read.
	tags []uint32
	lru  []uint32
	// mruHint is each set's most recently hitting way with that way's tag
	// key folded in, so the MRU fast path is one 8-byte probe instead of
	// dependent loads. Invariant: mruHint[s].key == tags[s*ways+mruHint[s].way]
	// at all times (every fill and scan hit update it; keys are nonzero, so
	// a hint on an invalid way never matches). Only the way is stored.
	mruHint  []mruEnt
	ways     int
	nsets    uint64
	setMask  uint64 // nsets-1 when nsets is a power of two, else 0
	setShift uint8  // log2(nsets) when setMask is set
	filled   int    // valid lines; lines never invalidate, so once full the
	// victim scan skips straight to LRU selection
	// setFilled counts the valid ways per set. Fills always claim the first
	// invalid way and lines never invalidate, so the valid ways of a set are
	// the prefix [0, setFilled[s]) and the next victim in a non-full set is
	// simply way setFilled[s] — no invalid-way scan.
	setFilled []uint16
	// filter is a counting presence filter over hashed line addresses: a
	// zero slot proves the line is resident nowhere in this level, so a miss
	// costs one array read instead of a tag scan. Counters saturate sticky
	// at 255 (a saturated slot is never decremented again), which can only
	// create false positives — the tag scan then resolves them — never
	// false absence.
	filter      []uint8
	filterShift uint8

	// Devirtualized next level: New recognises the two concrete Table I
	// backends so the L1D→L2→L3→DRAM miss chain is direct calls; any other
	// Backend (the tests' fixed-latency and reference levels) falls back to
	// interface dispatch.
	next      Backend
	nextCache *Cache
	nextMem   *dram.Memory

	// Concrete prefetcher dispatch, same idea as the next-level pointers.
	pfStride *StridePrefetcher
	pfStream *StreamPrefetcher

	// Outstanding misses: a ring sorted by fill time (mshrEnt docs above).
	// Live entries are mshr[mshrHead:]; retirement advances mshrHead and the
	// dead prefix is reclaimed when an insertion would otherwise grow the
	// backing array.
	mshr     []mshrEnt
	mshrHead int
	mshrSeq  uint64
	mshrMin  uint64 // earliest outstanding fill; purge is a no-op before it
	// tick stamps lru. When it wraps, renormLRU rewrites every set's stamps
	// as their ranks, which keeps every victim choice.
	tick uint32

	// Stats
	Accesses, Misses, PrefetchIssued, PrefetchUseful, MSHRStalls uint64

	// mshrAddrs and mshrFills are the checkpointed form of the live MSHR
	// entries in insertion order, kept to reuse their storage, and mruWays
	// that of the MRU hints' ways, sized with the sets so that a checkpoint
	// of a new core allocates nothing for it (4 bytes per set, off the hit
	// path). They sit last so the hot fields above keep their offsets.
	mshrAddrs, mshrFills []uint64
	mruWays              []uint32
}

// New builds a cache level in front of next.
func New(cfg Config, next Backend) *Cache {
	nsets := cfg.SizeKB * 1024 / LineBytes / cfg.Ways
	c := &Cache{cfg: cfg, ways: cfg.Ways, nsets: uint64(nsets)}
	c.setNext(next)
	switch pf := cfg.Prefetch.(type) {
	case *StridePrefetcher:
		c.pfStride = pf
	case *StreamPrefetcher:
		c.pfStream = pf
	}
	// All Table I geometries have power-of-two set counts, so the hot-path
	// set index is a mask instead of a modulo; setIndex falls back to the
	// division for exotic configurations.
	if nsets > 0 && nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets) - 1
		c.setShift = uint8(bits.TrailingZeros(uint(nsets)))
	}
	// One flat set-major array instead of a slice per set: a single
	// allocation (an L3 has thousands of sets) and no pointer hop between
	// the set index and the ways.
	c.lines = make([]uint64, nsets*cfg.Ways)
	c.tags = make([]uint32, nsets*cfg.Ways)
	c.lru = make([]uint32, nsets*cfg.Ways)
	c.mruHint = make([]mruEnt, nsets)
	c.mruWays = make([]uint32, nsets)
	c.setFilled = make([]uint16, nsets)
	// Filter sized to at least twice the line count so live counts stay in
	// the low single digits and saturation never fires in practice.
	fbits := 6
	for 1<<fbits < 2*len(c.lines) {
		fbits++
	}
	c.filter = make([]uint8, 1<<fbits)
	c.filterShift = uint8(64 - fbits)
	if cfg.MSHRs > 0 {
		// 4x slack so reclaiming the retired prefix amortizes: with capacity
		// exactly MSHRs every push past the first wrap would compact.
		c.mshr = make([]mshrEnt, 0, 4*cfg.MSHRs)
	}
	return c
}

// setNext installs the next level, devirtualizing the two concrete backends.
func (c *Cache) setNext(next Backend) {
	c.next, c.nextCache, c.nextMem = next, nil, nil
	switch n := next.(type) {
	case *Cache:
		c.nextCache = n
	case *dram.Memory:
		c.nextMem = n
	}
}

// fillFrom serves a miss from the next level through the concrete pointer
// when one is known, so the hot chain is direct calls instead of itab hops.
func (c *Cache) fillFrom(addr uint64, cycle uint64, write, prefetch bool) uint64 {
	if c.nextCache != nil {
		return c.nextCache.Access(addr, cycle, write, prefetch)
	}
	if c.nextMem != nil {
		return c.nextMem.Access(addr, cycle, write, prefetch)
	}
	return c.next.Access(addr, cycle, write, prefetch)
}

// Reset clears all cached state and statistics in place, reusing the line
// storage — the cache behaves exactly like a freshly constructed one.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.tags)
	clear(c.lru)
	clear(c.mruHint)
	clear(c.setFilled)
	clear(c.filter)
	c.filled = 0
	c.mshr = c.mshr[:0]
	c.mshrHead = 0
	c.mshrSeq = 0
	c.mshrMin = 0
	c.tick = 0
	c.Accesses, c.Misses, c.PrefetchIssued, c.PrefetchUseful, c.MSHRStalls = 0, 0, 0, 0, 0
	if c.cfg.Prefetch != nil {
		c.cfg.Prefetch.Reset()
	}
}

// key returns lineAddr's set index and its tag key: the line address above
// the set-index bits, plus one so that 0 marks an invalid way. A line
// address whose key would not fit 32 bits panics (see maxKey).
func (c *Cache) key(lineAddr uint64) (si uint64, key uint32) {
	var q uint64
	if c.setMask != 0 {
		si, q = lineAddr&c.setMask, lineAddr>>(c.setShift&63)
	} else {
		si, q = lineAddr%c.nsets, lineAddr/c.nsets
	}
	if q >= maxKey {
		panic(keyRangeError{c.cfg.Name, lineAddr << lineShift, c.nsets})
	}
	return si, uint32(q) + 1
}

// lineAddr inverts key: the line address held by a way of set si.
func (c *Cache) lineAddr(si uint64, key uint32) uint64 {
	if c.setMask != 0 {
		return uint64(key-1)<<(c.setShift&63) | si
	}
	return uint64(key-1)*c.nsets + si
}

// keyRangeError is key's panic value: an address whose tag key would not fit
// 32 bits.
type keyRangeError struct {
	cache      string
	addr, sets uint64
}

func (e keyRangeError) Error() string {
	return fmt.Sprintf("cache %s: address %#x is beyond the 32-bit tag key range of %d sets",
		e.cache, e.addr, e.sets)
}

// filterSlot hashes a line address into the presence filter. The multiplier
// is the 64-bit golden-ratio constant; the high product bits mix every
// address bit, so lines of one set (identical low bits) spread evenly.
func (c *Cache) filterSlot(lineAddr uint64) uint64 {
	return (lineAddr * 0x9e3779b97f4a7c15) >> c.filterShift
}

func (c *Cache) filterAdd(lineAddr uint64) {
	if s := &c.filter[c.filterSlot(lineAddr)]; *s < 255 {
		*s++
	}
}

func (c *Cache) filterRemove(lineAddr uint64) {
	// A saturated slot stays saturated: its true count is unknown, and a
	// stuck-high slot only costs a redundant tag scan.
	if s := &c.filter[c.filterSlot(lineAddr)]; *s < 255 {
		*s--
	}
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// findLine returns the global way index of the resident line, or -1, from
// the set's tags. si and key are lineAddr's (see key). lookupOrFill probes
// the set's MRU hint first; tags are unique within a set, so a hint hit is
// the line this scan would return. The caller touches c.lru / c.lines
// through the index.
func (c *Cache) findLine(lineAddr, si uint64, key uint32) int {
	// A zero filter slot proves absence: misses — the common case on the
	// pointer-chase profiles — never walk the tags.
	if c.filter[c.filterSlot(lineAddr)] == 0 {
		return -1
	}
	base := si * uint64(c.ways)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == key {
			c.mruHint[si] = mruEnt{key: key, way: uint32(i)}
			return int(base + uint64(i))
		}
	}
	return -1
}

// victim returns the way of set si to fill: the first invalid way — which is
// way setFilled[si], since valid ways form a prefix — else the set's LRU way.
func (c *Cache) victim(si uint64) uint32 {
	if f := c.setFilled[si]; int(f) < c.ways {
		c.setFilled[si] = f + 1
		c.filled++
		return uint32(f)
	}
	base := si * uint64(c.ways)
	lru := c.lru[base : base+uint64(c.ways)]
	// Two passes beat the index-tracking one: minimum-of-values compiles to
	// branch-free compare-and-move, and the first index holding the minimum
	// is exactly the first-minimum the one-pass scan chose (true even if
	// values were to repeat).
	min := lru[0]
	for _, l := range lru[1:] {
		if l < min {
			min = l
		}
	}
	vw := uint32(0)
	for i, l := range lru {
		if l == min {
			vw = uint32(i)
			break
		}
	}
	return vw
}

// renormLRU runs when tick wraps: it rewrites each valid way's stamp as its
// rank within the set — one more than the number of older stamps there, so
// the order and any ties are kept — and restarts tick above every rank.
// Victim selection only compares stamps within one set, and new stamps stay
// above old ones, so every victim choice is the one 64-bit stamps would
// make. Invalid ways keep 0; victim never reads them. It runs once per 2^32
// accesses, so the quadratic count costs nothing measurable.
func (c *Cache) renormLRU() {
	ranks := make([]uint32, c.ways)
	for si := uint64(0); si < c.nsets; si++ {
		base := si * uint64(c.ways)
		lru := c.lru[base : base+uint64(c.setFilled[si])]
		for i, a := range lru {
			ranks[i] = 1
			for _, b := range lru {
				if b < a {
					ranks[i]++
				}
			}
		}
		copy(lru, ranks)
	}
	c.tick = uint32(c.ways) + 1
}

// purgeMSHRs retires outstanding misses whose data has arrived by cycle. The
// ring is sorted by fill, so retirement advances the head index past the
// retired prefix — no swaps, no compaction.
func (c *Cache) purgeMSHRs(cycle uint64) {
	if c.mshrMin > cycle {
		return // nothing can have retired yet
	}
	h := c.mshrHead
	for h < len(c.mshr) && c.mshr[h].fill <= cycle {
		h++
	}
	if h == len(c.mshr) {
		c.mshr = c.mshr[:0]
		c.mshrHead = 0
		c.mshrMin = ^uint64(0)
	} else {
		c.mshrHead = h
		c.mshrMin = c.mshr[h].fill
	}
}

// Access implements Backend. Demand accesses train the prefetcher with the
// requesting PC via AccessPC; plain Access uses PC 0.
func (c *Cache) Access(addr uint64, cycle uint64, write, prefetch bool) uint64 {
	return c.AccessPC(addr, 0, cycle, write, prefetch)
}

// AccessPC is Access with the requesting instruction's PC, which the stride
// prefetcher needs.
func (c *Cache) AccessPC(addr, pc uint64, cycle uint64, write, prefetch bool) uint64 {
	lineAddr := addr >> lineShift
	if !prefetch {
		c.Accesses++
	}
	if c.tick++; c.tick == 0 {
		c.renormLRU()
	}

	ready := c.lookupOrFill(lineAddr, cycle, write, prefetch)

	if c.cfg.Prefetch != nil && !prefetch {
		for _, target := range c.observe(addr, pc, ready > cycle+c.cfg.Latency) {
			c.PrefetchIssued++
			c.lookupOrFill(target>>lineShift, cycle, false, true)
		}
	}
	return ready
}

// observe trains the attached prefetcher, through the concrete type when it
// is one of the two standard ones.
func (c *Cache) observe(addr, pc uint64, miss bool) []uint64 {
	if c.pfStream != nil {
		return c.pfStream.Observe(addr, pc, miss)
	}
	if c.pfStride != nil {
		return c.pfStride.Observe(addr, pc, miss)
	}
	return c.cfg.Prefetch.Observe(addr, pc, miss)
}

func (c *Cache) lookupOrFill(lineAddr, cycle uint64, write, prefetch bool) uint64 {
	si, key := c.key(lineAddr)
	// MRU fast path: the hint carries the hinted way's key, so a hit is one
	// probe with no dependent tag load.
	var gi int
	if h := c.mruHint[si]; h.key == key {
		gi = int(si)*c.ways + int(h.way)
	} else {
		gi = c.findLine(lineAddr, si, key)
	}
	if gi >= 0 {
		c.lru[gi] = c.tick
		v := c.lines[gi]
		if v&pfBit != 0 && !prefetch {
			c.PrefetchUseful++
			v &^= pfBit
			c.lines[gi] = v
		}
		// A hit on a still-filling line waits for the fill (MSHR merge).
		start := cycle
		if ft := v &^ pfBit; ft > start {
			start = ft
		}
		return start + c.cfg.Latency
	}

	if !prefetch {
		c.Misses++
	}

	// Merge with an outstanding miss if present. Live entries are unique by
	// address, so ring order does not matter to the scan.
	c.purgeMSHRs(cycle)
	for i := c.mshrHead; i < len(c.mshr); i++ {
		if c.mshr[i].addr == lineAddr {
			return c.mshr[i].fill + c.cfg.Latency
		}
	}

	// MSHR full: drop prefetches before touching the fill times — they pay
	// nothing — and stall demand accesses until the earliest retirement,
	// which sits at the ring head.
	issueCycle := cycle
	if len(c.mshr)-c.mshrHead >= c.cfg.MSHRs {
		if prefetch {
			return cycle
		}
		c.MSHRStalls++
		issueCycle = c.mshr[c.mshrHead].fill
		c.purgeMSHRs(issueCycle)
	}

	// Choose the victim — and touch its tag — before walking the next level:
	// the tag is a dependent load into an array too large to stay resident,
	// so issuing it here lets it resolve under the fill walk. Sound because
	// the walk only ever descends (fillFrom never re-enters this level, and
	// prefetches triggered below run entirely in the lower levels), so
	// nothing read or written here changes before the fill returns.
	vw := c.victim(si)
	gi = int(si)*c.ways + int(vw)
	old := c.tags[gi]

	fill := c.fillFrom(lineAddr<<lineShift, issueCycle+c.cfg.Latency, write, prefetch)
	if old != 0 {
		c.filterRemove(c.lineAddr(si, old))
	}
	c.filterAdd(lineAddr)
	v := fill
	if prefetch {
		v |= pfBit
	}
	c.lines[gi] = v
	c.tags[gi] = key
	c.lru[gi] = c.tick
	c.mruHint[si] = mruEnt{key: key, way: vw}
	if len(c.mshr) == c.mshrHead || fill < c.mshrMin {
		c.mshrMin = fill
	}
	c.mshrPush(mshrEnt{fill: fill, addr: lineAddr, seq: c.mshrSeq})
	c.mshrSeq++
	return fill + c.cfg.Latency
}

// mshrPush inserts an entry at its sorted position. Entries arrive with
// mostly increasing fill times, so the common case is a plain append; equal
// fills keep insertion order (the new entry lands after them), preserving
// the historical first-minimum earliest-fill choice.
func (c *Cache) mshrPush(e mshrEnt) {
	if len(c.mshr) == cap(c.mshr) && c.mshrHead > 0 {
		// Reclaim the retired prefix instead of growing the backing array.
		n := copy(c.mshr, c.mshr[c.mshrHead:])
		c.mshr = c.mshr[:n]
		c.mshrHead = 0
	}
	c.mshr = append(c.mshr, e)
	i := len(c.mshr) - 1
	for i > c.mshrHead && c.mshr[i-1].fill > e.fill {
		c.mshr[i] = c.mshr[i-1]
		i--
	}
	c.mshr[i] = e
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	si, key := c.key(addr >> lineShift)
	return c.findLine(addr>>lineShift, si, key) >= 0
}

// MissRate returns misses/accesses for demand traffic.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
