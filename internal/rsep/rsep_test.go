package rsep

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rsepsim/internal/predictor"
	"rsepsim/internal/regfile"
)

func TestFoldHashWidth(t *testing.T) {
	for _, bits := range []uint{8, 10, 14, 16} {
		for _, v := range []uint64{0, 1, ^uint64(0), 0xdeadbeefcafebabe} {
			h := FoldHash(v, bits)
			if h >= 1<<bits {
				t.Errorf("FoldHash(%#x,%d) = %#x exceeds width", v, bits, h)
			}
		}
	}
}

func TestFoldHash14AvoidsTrivialCollisions(t *testing.T) {
	// §IV-A: with a non-power-of-two width, 0 and -1 must not collide
	// (with 8- or 16-bit folds they would both hash to 0).
	if FoldHash(0, 14) == FoldHash(^uint64(0), 14) {
		t.Fatal("0 and -1 collide under the 14-bit fold")
	}
	if FoldHash(0, 16) != FoldHash(^uint64(0), 16) {
		t.Fatal("sanity: 0 and -1 should collide under a 16-bit fold")
	}
}

func TestFoldHashMatchesPaperFormula(t *testing.T) {
	// Hash[13..0] = val[13..0] ^ val[27..14] ^ val[41..28] ^ val[55..42]
	// ^ val[63..56]
	v := uint64(0x123456789abcdef0)
	want := uint32(v&0x3fff) ^ uint32(v>>14&0x3fff) ^ uint32(v>>28&0x3fff) ^
		uint32(v>>42&0x3fff) ^ uint32(v>>56&0x3fff)
	if got := FoldHash(v, 14); got != want {
		t.Fatalf("FoldHash = %#x, want %#x", got, want)
	}
}

func TestHRF(t *testing.T) {
	h := NewHRF(16, 14)
	h.Write(regfile.PReg(3), 0xdeadbeef)
	if got := h.Read(regfile.PReg(3)); got != FoldHash(0xdeadbeef, 14) {
		t.Fatalf("HRF read = %#x", got)
	}
	if h.Read(regfile.ZeroPReg) != 0 {
		t.Fatal("zero register must hash to 0")
	}
	if h.StorageBits() != 16*14 {
		t.Fatalf("storage = %d", h.StorageBits())
	}
}

func TestFIFOHistoryFindsPairs(t *testing.T) {
	h := NewFIFOHistory(64, 14, 10)
	h.Push(100, 0)
	h.Push(200, 1)
	h.Push(100, 2)
	// A new instance of hash 100 at CSN 5 should pair with CSN 2.
	d, ok := h.Find(100, 5, 0)
	if !ok || d != 3 {
		t.Fatalf("Find = %d,%v, want 3,true", d, ok)
	}
	if _, ok := h.Find(999, 5, 0); ok {
		t.Fatal("found a pair for an unseen hash")
	}
}

func TestFIFOHistoryPrivilegesPredictedDistance(t *testing.T) {
	h := NewFIFOHistory(64, 14, 10)
	h.Push(100, 0) // the stable pair, distance 4 from CSN 4
	h.Push(1, 1)
	h.Push(2, 2)
	h.Push(100, 3) // a chance match at distance 1
	// Without a predicted distance, the most recent match wins (noise).
	if d, _ := h.Find(100, 4, 0); d != 1 {
		t.Fatalf("unpredicted find = %d, want 1", d)
	}
	// With the predicted distance propagated, the matching entry at that
	// distance is privileged (§VI-A2).
	if d, _ := h.Find(100, 4, 4); d != 4 {
		t.Fatalf("predicted find = %d, want 4", d)
	}
	// A predicted distance whose entry does not match falls back.
	if d, _ := h.Find(100, 4, 2); d != 1 {
		t.Fatalf("mismatched predicted find = %d, want 1", d)
	}
}

func TestFIFOHistoryEviction(t *testing.T) {
	h := NewFIFOHistory(4, 14, 10)
	h.Push(7, 0)
	for c := uint64(1); c <= 4; c++ {
		h.Push(uint32(100+c), c)
	}
	if _, ok := h.Find(7, 5, 0); ok {
		t.Fatal("evicted entry still found")
	}
}

func TestDDTMostRecentOnly(t *testing.T) {
	d := NewDDT(256, 10)
	d.Push(100, 0)
	d.Push(100, 3)
	dist, ok := d.Find(100, 5, 4) // predicted distance is ignored by a DDT
	if !ok || dist != 2 {
		t.Fatalf("DDT find = %d,%v, want 2,true", dist, ok)
	}
}

func TestTAGEDistLearnsStableDistance(t *testing.T) {
	dp := NewTAGEDist(IdealTAGEDist(), nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
	pc := uint64(0x4000)
	for i := 0; i < 300; i++ {
		lk := dp.Lookup(pc, hist)
		dp.Update(&lk, 24)
	}
	lk := dp.Lookup(pc, hist)
	if lk.Dist != 24 || !lk.UsePred {
		t.Fatalf("dist=%d usePred=%v, want 24,true", lk.Dist, lk.UsePred)
	}
}

func TestTAGEDistStartTrainThreshold(t *testing.T) {
	cfg := RealisticTAGEDist() // start_train = 63
	dp := NewTAGEDist(cfg, nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
	pc := uint64(0x4100)
	for i := 0; i < 100; i++ { // past 63, below 255
		lk := dp.Lookup(pc, hist)
		dp.Update(&lk, 9)
	}
	lk := dp.Lookup(pc, hist)
	if !lk.Train {
		t.Fatal("likely candidate not flagged above start_train")
	}
	if lk.UsePred {
		t.Fatal("must not predict below use_pred")
	}
}

func TestGShareDistLearns(t *testing.T) {
	dp := NewGShareDist(1024, 1024, 16, 8, 255, 63, nil)
	hist := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
	pc := uint64(0x5000)
	for i := 0; i < 300; i++ {
		lk := dp.Lookup(pc, hist)
		dp.Update(&lk, 12)
	}
	lk := dp.Lookup(pc, hist)
	if lk.Dist != 12 || !lk.UsePred {
		t.Fatalf("gshare dist=%d usePred=%v", lk.Dist, lk.UsePred)
	}
}

func TestZeroPredictor(t *testing.T) {
	zp := NewZeroPredictor(256, 255, nil)
	pc := uint64(0x6000)
	for i := 0; i < 255; i++ {
		lk := zp.Lookup(pc)
		zp.Update(&lk, true)
	}
	lk := zp.Lookup(pc)
	if !lk.PredictZero {
		t.Fatal("always-zero instruction not predicted")
	}
	zp.Update(&lk, false) // one non-zero result
	lk = zp.Lookup(pc)
	if lk.PredictZero {
		t.Fatal("confidence must reset after a non-zero outcome")
	}
}

func TestStorageBudgets(t *testing.T) {
	// §IV-C: the large predictor amounts to 42.6KB.
	ideal := NewTAGEDist(IdealTAGEDist(), nil, nil)
	kb := float64(ideal.StorageBits()) / 8 / 1024
	if kb < 40 || kb > 45 {
		t.Fatalf("ideal predictor = %.1fKB, want ~42.6KB", kb)
	}
	// §VI-B: the realistic predictor is 10.1KB.
	real := NewTAGEDist(RealisticTAGEDist(), nil, nil)
	kb = float64(real.StorageBits()) / 8 / 1024
	if kb < 9 || kb > 11 {
		t.Fatalf("realistic predictor = %.1fKB, want ~10.1KB", kb)
	}
	// §VI-B: the full realistic implementation is ~10.8KB.
	cfg := Realistic()
	kb = float64(cfg.StorageBits(192, 9)) / 8 / 1024
	if kb < 10 || kb > 12.5 {
		t.Fatalf("realistic total = %.1fKB, want ~10.8KB", kb)
	}
}

func TestValidationPolicyStrings(t *testing.T) {
	for _, v := range []ValidationPolicy{ValidateIdeal, ValidateIssue2xSameFU, ValidateIssue2xAnyFU} {
		if v.String() == "" {
			t.Errorf("policy %d has empty name", v)
		}
	}
}

// TestFIFOHistoryReshapeEqualsNew: one history reshaped through a depth and
// hash-width sweep — hash widths 8 to 16 and 32, depths from 32 (also 48,
// not a power of two) to ideal — answers every Find and reports the same
// storage as a fresh history of each shape, although it keeps the largest
// ring and bucket heads throughout. Both also answer exactly like a history
// with the 2·capacity bucket heads the sizing by hash width replaced: the
// bucket count affects only chain lengths, never a Find.
func TestFIFOHistoryReshapeEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewFIFOHistory(0, 14, 10)
	for _, hashBits := range []int{14, 8, 10, 12, 16, 32} {
		// A few hot hashes of the full width make pairs; fresh random ones
		// spread over every bucket.
		pool := make([]uint32, 48)
		for i := range pool {
			pool[i] = FoldHash(rng.Uint64(), uint(hashBits))
		}
		for _, n := range []int{0, 32, 48, 256, 1024} {
			shape := fmt.Sprintf("depth %d, %d-bit hashes", n, hashBits)
			reused.Reshape(n, hashBits, 10)
			fresh := NewFIFOHistory(n, hashBits, 10)
			// A 32-bit width never caps the heads, so this one keeps the
			// old 2·capacity bucket count; its hash width is then set
			// back for the storage comparison.
			wide := NewFIFOHistory(n, 32, 10)
			wide.hashBits = hashBits
			capacity := n
			if capacity == 0 {
				capacity = 1 << 16
			}
			if want := capacity * (hashBits + 10); reused.StorageBits() != want || fresh.StorageBits() != want || wide.StorageBits() != want {
				t.Fatalf("%s: reshaped reports %d bits, fresh %d, want %d", shape, reused.StorageBits(), fresh.StorageBits(), want)
			}
			heads := predictor.Pow2Ceil(2 * capacity)
			if hashBits < 32 {
				heads = min(heads, 1<<hashBits)
			}
			if len(reused.heads) != heads || len(fresh.heads) != heads || len(wide.heads) != predictor.Pow2Ceil(2*capacity) {
				t.Fatalf("%s: %d and %d bucket heads, want %d", shape, len(reused.heads), len(fresh.heads), heads)
			}
			if reused.Len() != n {
				t.Fatalf("%s: reshaped Len = %d", shape, reused.Len())
			}
			for csn := uint64(0); csn < 5_000; csn++ {
				hash := pool[rng.Intn(len(pool))]
				if rng.Intn(4) == 0 {
					hash = FoldHash(rng.Uint64(), uint(hashBits))
				}
				pred := uint16(rng.Intn(40))
				d1, ok1 := reused.Find(hash, csn, pred)
				d2, ok2 := fresh.Find(hash, csn, pred)
				d3, ok3 := wide.Find(hash, csn, pred)
				if d1 != d2 || ok1 != ok2 || d1 != d3 || ok1 != ok3 {
					t.Fatalf("%s, csn %d: reshaped Find = %d,%v, fresh %d,%v, wide heads %d,%v", shape, csn, d1, ok1, d2, ok2, d3, ok3)
				}
				reused.Push(hash, csn)
				fresh.Push(hash, csn)
				wide.Push(hash, csn)
			}
		}
	}
}

// Property: Find never reports a distance of zero or beyond the window, and
// a reported pair really has a matching hash at that distance.
func TestQuickFIFOHistoryConsistency(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewFIFOHistory(32, 14, 10)
		type rec struct{ hash uint32 }
		var all []rec
		steps := int(n%300) + 50
		for csn := uint64(0); csn < uint64(steps); csn++ {
			hash := uint32(rng.Intn(8)) // few hashes: many collisions
			if d, ok := h.Find(hash, csn, uint16(rng.Intn(6))); ok {
				if d == 0 || d > 32 || uint64(d) > csn {
					return false
				}
				if all[csn-uint64(d)].hash != hash {
					return false
				}
			}
			h.Push(hash, csn)
			all = append(all, rec{hash})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The flat chain-through-ring index must stay bounded at ring capacity no
// matter how many entries stream through — the map index it replaced kept one
// stale key per distinct hash ever pushed, growing without bound on long
// runs — and pushing/probing in steady state must not allocate at all.
func TestFIFOHistoryBoundedResidency(t *testing.T) {
	const capacity = 128
	h := NewFIFOHistory(capacity, 14, 10)
	csn := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			hash := FoldHash(csn*0x9e3779b97f4a7c15, 14) // ~every hash distinct
			h.Find(hash, csn, uint16(csn%7))
			h.Push(hash, csn)
			csn++
		}
	}
	push(capacity / 2)
	if got := h.Residency(); got != capacity/2 {
		t.Fatalf("partial-fill residency = %d, want %d", got, capacity/2)
	}
	// Stream 2^20 entries (8192x the capacity) through the window.
	for i := 0; i < 1<<20/capacity; i++ {
		push(capacity)
		if got := h.Residency(); got > capacity {
			t.Fatalf("residency = %d after %d pushes, want <= %d", got, csn, capacity)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { push(1024) }); allocs != 0 {
		t.Errorf("steady-state Push/Find allocated %.1f times per 1024 entries, want 0", allocs)
	}
	// The window edge still behaves: a pair one inside the window is found,
	// one outside is not.
	h = NewFIFOHistory(capacity, 14, 10)
	h.Push(42, 0)
	for c := uint64(1); c < capacity; c++ {
		h.Push(1000+uint32(c), c)
	}
	if d, ok := h.Find(42, capacity, 0); !ok || d != capacity {
		t.Fatalf("edge Find = %d,%v, want %d,true", d, ok, capacity)
	}
	h.Push(2000, capacity) // evicts CSN 0
	if _, ok := h.Find(42, capacity+1, 0); ok {
		t.Fatal("Find matched an entry evicted from the ring")
	}
}

// Differential property: the flat index reproduces the reference semantics —
// "most recent push of the hash, if still inside the ring window" — under
// heavy collision pressure.
func TestQuickFIFOHistoryMatchesReferenceIndex(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 16
		h := NewFIFOHistory(capacity, 14, 10)
		ref := map[uint32]uint64{} // hash -> most recent CSN (never cleaned)
		steps := int(n%400) + 50
		for csn := uint64(0); csn < uint64(steps); csn++ {
			hash := uint32(rng.Intn(6))
			gotD, gotOK := h.Find(hash, csn, 0)
			var minCSN uint64
			if csn > capacity {
				minCSN = csn - capacity
			}
			last, ok := ref[hash]
			wantOK := ok && last < csn && last >= minCSN
			if gotOK != wantOK || (wantOK && uint64(gotD) != csn-last) {
				return false
			}
			h.Push(hash, csn)
			ref[hash] = csn
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitHistoryDistance(t *testing.T) {
	h := NewImplicitHistory(16, 14)
	h.PushProducer(100)
	h.PushOther() // a store occupies a slot
	h.PushProducer(200)
	// Distance to hash 100 is 3 all-instruction slots back.
	if d, ok := h.Find(100); !ok || d != 3 {
		t.Fatalf("Find = %d,%v, want 3,true", d, ok)
	}
	if d, ok := h.Find(200); !ok || d != 1 {
		t.Fatalf("Find = %d,%v, want 1,true", d, ok)
	}
	if _, ok := h.Find(invalidHash); ok {
		t.Fatal("invalid hash must never match")
	}
}

func TestImplicitHistoryWindowShrinks(t *testing.T) {
	// §IV-D2c: non-producing instructions consume entries, so a pair that
	// fits an explicit history can fall out of an implicit one of the
	// same size.
	h := NewImplicitHistory(4, 14)
	h.PushProducer(7)
	for i := 0; i < 4; i++ {
		h.PushOther()
	}
	if _, ok := h.Find(7); ok {
		t.Fatal("entry should have been pushed out by non-producers")
	}
}

func TestImplicitHistoryStorage(t *testing.T) {
	// 256 entries x 14-bit hashes = 448 bytes (§IV-D2b).
	h := NewImplicitHistory(256, 14)
	if got := h.StorageBits() / 8; got != 448 {
		t.Fatalf("storage = %dB, want 448B", got)
	}
}
