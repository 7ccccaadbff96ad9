package cache

import (
	"math/rand"
	"testing"
)

// This file differentially tests the scan-free hot paths (presence filters,
// per-set fill counts, the MSHR min-heap, the stream-prefetcher index, the
// O(1) TLB victim) against naive reference models that re-implement the
// historical linear-scan semantics verbatim. Every access's returned ready
// cycle and the final statistics must match bit for bit across tens of
// thousands of seeded cases, including MSHR exhaustion, fills racing purges,
// prefetch interleavings and non-power-of-two geometries.

// refStride is the per-PC stride prefetcher, naive form.
type refStride struct {
	entries []strideEntry
	degree  int
}

func newRefStride(entries, degree int) *refStride {
	return &refStride{entries: make([]strideEntry, entries), degree: degree}
}

func (s *refStride) observe(addr, pc uint64, _ bool) []uint64 {
	if pc == 0 {
		return nil
	}
	e := &s.entries[(pc>>2)%uint64(len(s.entries))]
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
	var out []uint64
	next := int64(addr) + stride*16
	for i := 0; i < s.degree; i++ {
		if next > 0 {
			out = append(out, uint64(next))
		}
		next += stride
	}
	return out
}

// refStream is the stream prefetcher with the historical full linear scan —
// every stream checked in index order, first match wins, allocation claims
// the first invalid slot found by scanning.
type refStream struct {
	lastLine []uint64
	dir      []int64
	conf     []uint8
	lru      []uint64
	degree   int
	clock    uint64
	filled   int
}

func newRefStream(streams, degree int) *refStream {
	return &refStream{
		lastLine: make([]uint64, streams),
		dir:      make([]int64, streams),
		conf:     make([]uint8, streams),
		lru:      make([]uint64, streams),
		degree:   degree,
	}
}

func (s *refStream) observe(addr, _ uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	line := addr >> lineShift
	s.clock++
	for i, ll := range s.lastLine {
		if ll == 0 {
			continue
		}
		d := int64(line) - int64(ll>>1)
		if d == s.dir[i] || (s.conf[i] == 0 && (d == 1 || d == -1)) {
			s.dir[i] = d
			s.lastLine[i] = line<<1 | 1
			s.lru[i] = s.clock
			if s.conf[i] < 3 {
				s.conf[i]++
			}
			if s.conf[i] < 2 {
				return nil
			}
			var out []uint64
			next := int64(line) + d*4
			for k := 0; k < s.degree; k++ {
				if next >= 0 {
					out = append(out, uint64(next)<<lineShift)
				}
				next += d
			}
			return out
		}
	}
	victim := -1
	if s.filled < len(s.lastLine) {
		for i, ll := range s.lastLine {
			if ll == 0 {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = 0
		for i, l := range s.lru {
			if l < s.lru[victim] {
				victim = i
			}
		}
	} else {
		s.filled++
	}
	s.lastLine[victim] = line<<1 | 1
	s.dir[victim] = 1
	s.conf[victim] = 0
	s.lru[victim] = s.clock
	return nil
}

// refPrefetcher is either reference prefetcher.
type refPrefetcher interface {
	observe(addr, pc uint64, miss bool) []uint64
}

type refLine struct {
	tag      uint64 // lineAddr<<1|1, 0 = invalid
	fillTime uint64
	lru      uint64
	prefetch bool
}

// refCache re-implements the cache level with the historical scans: tag scan
// per lookup, invalid-way scan for the victim, a compact insertion-ordered
// MSHR array walked in full on every purge and earliest-fill query.
type refCache struct {
	name     string
	sets     [][]refLine
	latency  uint64
	mshrs    int
	next     Backend
	pf       refPrefetcher
	mshrAddr []uint64
	mshrFill []uint64
	tick     uint64

	accesses, misses, pfIssued, pfUseful, mshrStalls uint64
}

func newRefCache(cfg Config, next Backend, pf refPrefetcher) *refCache {
	nsets := cfg.SizeKB * 1024 / LineBytes / cfg.Ways
	r := &refCache{name: cfg.Name, latency: cfg.Latency, mshrs: cfg.MSHRs, next: next, pf: pf}
	r.sets = make([][]refLine, nsets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) accessPC(addr, pc uint64, cycle uint64, write, prefetch bool) uint64 {
	lineAddr := addr >> lineShift
	if !prefetch {
		r.accesses++
	}
	r.tick++
	ready := r.lookupOrFill(lineAddr, cycle, write, prefetch)
	if r.pf != nil && !prefetch {
		for _, target := range r.pf.observe(addr, pc, ready > cycle+r.latency) {
			r.pfIssued++
			r.lookupOrFill(target>>lineShift, cycle, false, true)
		}
	}
	return ready
}

// Access implements Backend so refCaches chain.
func (r *refCache) Access(addr uint64, cycle uint64, write, prefetch bool) uint64 {
	return r.accessPC(addr, 0, cycle, write, prefetch)
}

func (r *refCache) purge(cycle uint64) {
	addrs, fills := r.mshrAddr[:0], r.mshrFill[:0]
	for i, f := range r.mshrFill {
		if f > cycle {
			addrs = append(addrs, r.mshrAddr[i])
			fills = append(fills, f)
		}
	}
	r.mshrAddr, r.mshrFill = addrs, fills
}

func (r *refCache) lookupOrFill(lineAddr, cycle uint64, write, prefetch bool) uint64 {
	set := r.sets[lineAddr%uint64(len(r.sets))]
	key := lineAddr<<1 | 1
	for i := range set {
		if set[i].tag == key {
			set[i].lru = r.tick
			if set[i].prefetch && !prefetch {
				r.pfUseful++
				set[i].prefetch = false
			}
			start := cycle
			if set[i].fillTime > start {
				start = set[i].fillTime
			}
			return start + r.latency
		}
	}

	if !prefetch {
		r.misses++
	}
	r.purge(cycle)
	for i, a := range r.mshrAddr {
		if a == lineAddr {
			return r.mshrFill[i] + r.latency
		}
	}

	issueCycle := cycle
	if len(r.mshrAddr) >= r.mshrs {
		earliest := r.mshrFill[0]
		for _, f := range r.mshrFill[1:] {
			if f < earliest {
				earliest = f
			}
		}
		if prefetch {
			return cycle
		}
		r.mshrStalls++
		issueCycle = earliest
		r.purge(issueCycle)
	}

	fill := r.next.Access(lineAddr<<lineShift, issueCycle+r.latency, write, prefetch)
	victim := -1
	for i := range set {
		if set[i].tag == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	set[victim] = refLine{tag: key, fillTime: fill, lru: r.tick, prefetch: prefetch}
	r.mshrAddr = append(r.mshrAddr, lineAddr)
	r.mshrFill = append(r.mshrFill, fill)
	return fill + r.latency
}

func (r *refCache) contains(addr uint64) bool {
	lineAddr := addr >> lineShift
	set := r.sets[lineAddr%uint64(len(r.sets))]
	for i := range set {
		if set[i].tag == lineAddr<<1|1 {
			return true
		}
	}
	return false
}

// refTLB is the TLB with the historical scans: full associative scan per
// lookup and the one-pass victim scan in which the LAST invalid entry wins.
type refTLB struct {
	pages []uint64
	lru   []uint64
	walk  uint64
	clock uint64

	accesses, misses uint64
}

func (t *refTLB) lookup(addr uint64) uint64 {
	page := addr >> pageShift
	key := page<<1 | 1
	t.accesses++
	t.clock++
	for i, p := range t.pages {
		if p == key {
			t.lru[i] = t.clock
			return 0
		}
	}
	victim := -1
	for i, p := range t.pages {
		if p == 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i, l := range t.lru {
			if l < t.lru[victim] {
				victim = i
			}
		}
	}
	t.misses++
	t.pages[victim] = key
	t.lru[victim] = t.clock
	return t.walk
}

// diffGeometry is one cache shape under test.
type diffGeometry struct {
	sizeKB, ways, mshrs int
	latency             uint64
	pf                  string // "", "stride", "stream"
}

// diffVariant is one run shape over a geometry. "wrap" starts the 32-bit
// LRU tick just below 2^32 and pushes it there again halfway, so the stamps
// renormalise twice mid-sequence. "top" places the line pool at the top of
// the tag key range; only geometries without a prefetcher run it, because
// prefetch targets beyond the pool would leave the range.
var diffVariants = []string{"plain", "wrap", "top"}

// TestCacheDifferential quickchecks the optimized Cache against refCache over
// randomized access sequences: every returned ready cycle and every statistic
// must agree exactly. Geometries include single-set, non-power-of-two set
// counts and MSHR counts small enough that exhaustion is routine; each runs
// every diffVariant against the same 64-bit reference.
func TestCacheDifferential(t *testing.T) {
	geoms := []diffGeometry{
		{1, 16, 2, 1, ""}, // 1 set: every access conflicts
		{1, 8, 1, 2, ""},  // 2 sets, single MSHR: constant exhaustion
		{1, 4, 2, 3, ""},  // 4 sets
		{3, 16, 2, 1, ""}, // 3 sets: non-power-of-two indexing
		{6, 16, 4, 2, ""}, // 6 sets: non-power-of-two indexing
		{4, 4, 4, 1, ""},  // 16 sets
		{1, 8, 2, 1, "stride"},
		{2, 8, 2, 2, "stride"},
		{1, 8, 2, 1, "stream"},
		{3, 16, 2, 2, "stream"},
		{4, 4, 4, 1, "stream"},
	}
	const (
		seedsPerGeom = 24
		opsPerSeed   = 48
	)
	cases := 0
	for gi, g := range geoms {
		for _, variant := range diffVariants {
			if variant == "top" && g.pf != "" {
				continue
			}
			for seed := 0; seed < seedsPerGeom; seed++ {
				cases += runDifferential(t, gi, g, variant, seed, opsPerSeed)
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("only %d differential cases run, want >= 10000", cases)
	}
}

// runDifferential runs one seeded access sequence through a Cache and a
// refCache of geometry g and returns the number of accesses compared.
func runDifferential(t *testing.T, gi int, g diffGeometry, variant string, seed, ops int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(gi*1000 + seed)))
	cfg := Config{
		Name: "diff", SizeKB: g.sizeKB, Ways: g.ways,
		Latency: g.latency, MSHRs: g.mshrs,
	}
	var rpf refPrefetcher
	switch g.pf {
	case "stride":
		cfg.Prefetch = NewStride(8, 1)
		rpf = newRefStride(8, 1)
	case "stream":
		cfg.Prefetch = NewStream(4, 1)
		rpf = newRefStream(4, 1)
	}
	opt := New(cfg, FixedLatency(25))
	ref := newRefCache(cfg, FixedLatency(25), rpf)

	// A small line pool forces set conflicts, MSHR merges and
	// repeated evictions; runs of sequential lines train the
	// stream prefetcher through its full allocate/extend/confirm
	// life cycle.
	poolLines := 4 * g.sizeKB * 16 / g.ways
	var lineBase uint64
	if variant == "top" {
		lineBase = maxKey*opt.nsets - uint64(poolLines)
	}
	const nearWrap = 1<<32 - 12
	cycle := uint64(0)
	runLeft, runLine, runDir := 0, uint64(0), int64(1)
	cases := 0
	for op := 0; op < ops; op++ {
		if variant == "wrap" && op%(ops/2) == 0 {
			opt.tick = nearWrap
		}
		var lineAddr uint64
		if runLeft > 0 {
			runLeft--
			runLine = uint64(int64(runLine) + runDir)
			lineAddr = runLine
		} else if g.pf == "stream" && rng.Intn(3) == 0 {
			runLeft = 3 + rng.Intn(6)
			runLine = uint64(rng.Intn(poolLines)) + 16
			runDir = int64(1 - 2*rng.Intn(2))
			lineAddr = runLine
		} else {
			lineAddr = lineBase + uint64(rng.Intn(poolLines))
		}
		addr := lineAddr<<lineShift | uint64(rng.Intn(LineBytes))
		pc := uint64(rng.Intn(6))*4 + 0x1000
		write := rng.Intn(8) == 0
		prefetch := rng.Intn(10) == 0
		cycle += uint64(rng.Intn(25)) // often small: fills race purges

		got := opt.AccessPC(addr, pc, cycle, write, prefetch)
		want := ref.accessPC(addr, pc, cycle, write, prefetch)
		if got != want {
			t.Fatalf("geom %+v %s seed %d op %d: addr %#x cycle %d prefetch %v: ready %d, reference %d",
				g, variant, seed, op, addr, cycle, prefetch, got, want)
		}
		cases++
	}
	if opt.Accesses != ref.accesses || opt.Misses != ref.misses ||
		opt.PrefetchIssued != ref.pfIssued || opt.PrefetchUseful != ref.pfUseful ||
		opt.MSHRStalls != ref.mshrStalls {
		t.Fatalf("geom %+v %s seed %d: stats (acc %d mis %d pfi %d pfu %d stall %d) != reference (acc %d mis %d pfi %d pfu %d stall %d)",
			g, variant, seed, opt.Accesses, opt.Misses, opt.PrefetchIssued, opt.PrefetchUseful, opt.MSHRStalls,
			ref.accesses, ref.misses, ref.pfIssued, ref.pfUseful, ref.mshrStalls)
	}
	for l := 0; l < poolLines; l++ {
		addr := (lineBase + uint64(l)) << lineShift
		if opt.Contains(addr) != ref.contains(addr) {
			t.Fatalf("geom %+v %s seed %d: residency of line %d disagrees", g, variant, seed, l)
		}
	}
	if variant == "wrap" && opt.tick >= nearWrap {
		t.Fatalf("geom %+v seed %d: the LRU tick never wrapped", g, seed)
	}
	return cases
}

// TestCacheDifferentialChain runs the differential over a two-level chain so
// lower-level accesses arrive through upper-level misses and prefetches —
// the fill times the upper level records come from a cache, not a constant.
func TestCacheDifferentialChain(t *testing.T) {
	l2cfg := Config{Name: "dl2", SizeKB: 2, Ways: 8, Latency: 4, MSHRs: 2}
	l1cfg := Config{Name: "dl1", SizeKB: 1, Ways: 4, Latency: 1, MSHRs: 2}
	const seeds = 32
	cases := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		ol2cfg, rl2cfg := l2cfg, l2cfg
		ol2cfg.Prefetch = NewStream(4, 1)
		optL2 := New(ol2cfg, FixedLatency(40))
		optL1 := New(l1cfg, optL2)
		refL2 := newRefCache(rl2cfg, FixedLatency(40), newRefStream(4, 1))
		refL1 := newRefCache(l1cfg, refL2, nil)

		cycle := uint64(0)
		for op := 0; op < 160; op++ {
			lineAddr := uint64(rng.Intn(64))
			if rng.Intn(4) == 0 { // sequential bursts to wake the L2 stream
				lineAddr = uint64(128 + op%16)
			}
			addr := lineAddr << lineShift
			write := rng.Intn(8) == 0
			cycle += uint64(rng.Intn(20))
			got := optL1.Access(addr, cycle, write, false)
			want := refL1.Access(addr, cycle, write, false)
			if got != want {
				t.Fatalf("seed %d op %d: addr %#x cycle %d: ready %d, reference %d",
					seed, op, addr, cycle, got, want)
			}
			cases++
		}
		if optL2.Misses != refL2.misses || optL2.MSHRStalls != refL2.mshrStalls ||
			optL2.PrefetchIssued != refL2.pfIssued {
			t.Fatalf("seed %d: L2 stats diverge: (mis %d stall %d pfi %d) != (mis %d stall %d pfi %d)",
				seed, optL2.Misses, optL2.MSHRStalls, optL2.PrefetchIssued,
				refL2.misses, refL2.mshrStalls, refL2.pfIssued)
		}
	}
	t.Logf("%d chained differential cases", cases)
}

// TestStreamPrefetcherDifferential drives the indexed stream table and the
// historical linear scan with identical miss streams, comparing every list of
// prefetch targets. Covers the indexed (streams <= 32) and fallback
// (streams > 32) construction paths.
func TestStreamPrefetcherDifferential(t *testing.T) {
	for _, streams := range []int{1, 4, 16, 32, 40} {
		cases := 0
		for seed := 0; seed < 24; seed++ {
			rng := rand.New(rand.NewSource(int64(streams*100 + seed)))
			opt := NewStream(streams, 2)
			ref := newRefStream(streams, 2)
			lineBase := uint64(1 << 20)
			var run uint64
			var dir int64 = 1
			for op := 0; op < 200; op++ {
				var line uint64
				switch rng.Intn(4) {
				case 0: // start a new run
					run = lineBase + uint64(rng.Intn(256))
					dir = int64(1 - 2*rng.Intn(2))
					line = run
				case 1, 2: // extend the current run
					run = uint64(int64(run) + dir)
					line = run
				default: // noise, including line 0 edge cases
					line = uint64(rng.Intn(8))
				}
				addr := line << lineShift
				miss := rng.Intn(5) != 0
				got := opt.Observe(addr, 0, miss)
				want := ref.observe(addr, 0, miss)
				if len(got) != len(want) {
					t.Fatalf("streams %d seed %d op %d: %d targets, reference %d", streams, seed, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("streams %d seed %d op %d: target[%d] %#x, reference %#x",
							streams, seed, op, i, got[i], want[i])
					}
				}
				cases++
			}
		}
		if cases < 4800 {
			t.Fatalf("streams %d: only %d cases", streams, cases)
		}
	}
}

// TestTLBDifferential compares the O(1)-victim TLB against the historical
// scanning reference over random page streams, for entry counts from 1 up.
func TestTLBDifferential(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 8, 32} {
		for seed := 0; seed < 24; seed++ {
			rng := rand.New(rand.NewSource(int64(entries*100 + seed)))
			opt := NewTLB(entries, 30)
			ref := &refTLB{
				pages: make([]uint64, entries),
				lru:   make([]uint64, entries),
				walk:  30,
			}
			pool := entries*2 + 2
			for op := 0; op < 150; op++ {
				addr := uint64(rng.Intn(pool))<<pageShift | uint64(rng.Intn(1<<pageShift))
				got := opt.Lookup(addr)
				want := ref.lookup(addr)
				if got != want {
					t.Fatalf("entries %d seed %d op %d: addr %#x: latency %d, reference %d",
						entries, seed, op, addr, got, want)
				}
			}
			if opt.Accesses != ref.accesses || opt.Misses != ref.misses {
				t.Fatalf("entries %d seed %d: stats (%d, %d) != reference (%d, %d)",
					entries, seed, opt.Accesses, opt.Misses, ref.accesses, ref.misses)
			}
		}
	}
}
