package cache

import (
	"testing"

	"rsepsim/internal/dram"
)

// tableIHierarchy builds the Table I memory system exactly as the pipeline
// wires it (core.go), so the micro-benchmarks below exercise the same
// geometry and prefetchers the headline pipeline benchmarks do.
func tableIHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1I: Config{Name: "L1I", SizeKB: 32, Ways: 8, Latency: 2, MSHRs: 8},
		L1D: Config{
			Name: "L1D", SizeKB: 32, Ways: 8, Latency: 4, MSHRs: 16,
			Prefetch: NewStride(256, 1),
		},
		L2: Config{
			Name: "L2", SizeKB: 256, Ways: 16, Latency: 8, MSHRs: 16,
			Prefetch: NewStream(16, 1),
		},
		L3: Config{
			Name: "L3", SizeKB: 6 * 1024, Ways: 24, Latency: 19, MSHRs: 16,
			Prefetch: NewStream(16, 1),
		},
		ITLBEntries: 64, DTLBEntries: 64, TLBWalkLat: 21,
		DRAM: dram.NewDDR4_2400(4.0),
	})
}

// microBatch is the number of accesses one benchmark op makes, so that CI's
// -benchtime 2x times thousands of accesses rather than two.
const microBatch = 4096

// lcg is a tiny deterministic address scrambler for the miss benchmarks —
// fixed constants, so runs are reproducible without math/rand.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// BenchmarkCacheHit measures the L1D hit path: a working set far below 32KB,
// touched repeatedly, so every access after warmup is a tag-match hit (the
// mruHint / presence-filter fast paths included).
func BenchmarkCacheHit(b *testing.B) {
	h := tableIHierarchy()
	const lines = 64 // 4KB footprint, trivially L1-resident
	cycle := uint64(0)
	for i := 0; i < 4*lines; i++ { // warm the set
		cycle += 8
		h.L1D.Access(uint64(i%lines)*LineBytes, cycle, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		cycle += 8
		h.L1D.Access(uint64(i%lines)*LineBytes, cycle, false, false)
	}
}

// BenchmarkCacheMissChain measures the devirtualized L1D→L2→L3→DRAM walk: a
// scrambled footprint well beyond the 6MB L3, so nearly every access runs the
// full miss chain — victim selection, presence-filter maintenance and MSHR
// ring handling at every level.
func BenchmarkCacheMissChain(b *testing.B) {
	h := tableIHierarchy()
	const footprint = 1 << 19 // 512K lines = 32MB, ~5x the L3
	cycle := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		cycle += 400 // past DRAM latency, so MSHRs retire between accesses
		addr := (lcg(uint64(i)) % footprint) * LineBytes
		h.ReadPC(addr, 0, cycle)
	}
}

// BenchmarkStreamObserve measures the stream prefetcher's per-miss cost with
// the hashed candidate index active: eight interleaved ascending streams, so
// every observation extends an existing stream via the two bucket reads.
func BenchmarkStreamObserve(b *testing.B) {
	s := NewStream(16, 1)
	const streams = 8
	var pos [streams]uint64
	for i := range pos {
		pos[i] = uint64(1+i) << 20 // distinct 4KB-region bases
		s.Observe(pos[i]<<lineShift, 0, true)
	}
	batch := func() {
		for i := 0; i < microBatch; i++ {
			k := i % streams
			pos[k]++
			s.Observe(pos[k]<<lineShift, 0, true)
		}
	}
	batch() // warm: grow the prefetch scratch to its steady size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkTLBLookup measures the translation fast paths under a mixed
// pattern: a hot page (MRU short-circuit), a small resident set (filter +
// associative scan) and a cold sweep (filter-proven absence, O(1) victim).
func BenchmarkTLBLookup(b *testing.B) {
	t := NewTLB(64, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		switch i & 3 {
		case 0, 1: // hot page: MRU hit
			t.Lookup(0x1000)
		case 2: // resident set: scan hit
			t.Lookup(uint64(1+i%32) << pageShift)
		default: // cold sweep: miss + walk
			t.Lookup(uint64(1<<30) + uint64(i)<<pageShift)
		}
	}
}

// TestCacheSteadyStateAllocations pins the memory hierarchy's hot paths at
// zero allocations per access once warm: the MSHR ring reclaims its retired
// prefix in place, prefetcher scratch slices are reused, and the presence
// filters are fixed arrays. Any per-access allocation (a per-miss MSHR node,
// a fresh prefetch slice) would fail the exact-zero bound.
func TestCacheSteadyStateAllocations(t *testing.T) {
	h := tableIHierarchy()
	cycle := uint64(0)
	run := func(n int) {
		for i := 0; i < n; i++ {
			cycle += 100
			addr := (lcg(cycle) % (1 << 18)) * LineBytes
			h.ReadPC(addr, cycle, cycle)
			h.Fetch((cycle%1024)*4, cycle)
		}
	}
	run(50_000) // warm: grow scratch slices, fill sets, saturate streams
	avg := testing.AllocsPerRun(5, func() { run(10_000) })
	if avg != 0 {
		t.Errorf("steady-state hierarchy allocations = %.2f per 10k accesses, want 0", avg)
	}
}
