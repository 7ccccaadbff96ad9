package regfile

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rsepsim/internal/ckpt"
)

// The core protocol: a register with one implicit owner reference and n
// shares is freed exactly when committed exceeds referenced (§IV-E2).
func TestISRBShareReleaseCycle(t *testing.T) {
	b := NewISRB(4, 6)
	p := PReg(7)

	if !b.Share(p) {
		t.Fatal("first share rejected")
	}
	if !b.Shared(p) {
		t.Fatal("entry not recorded")
	}
	// One share + implicit owner ref: two releases needed.
	freed, shared := b.Release(p)
	if freed || !shared {
		t.Fatalf("first release: freed=%v shared=%v, want false,true", freed, shared)
	}
	freed, shared = b.Release(p)
	if !freed || !shared {
		t.Fatalf("second release: freed=%v shared=%v, want true,true", freed, shared)
	}
	if b.Shared(p) {
		t.Fatal("entry not dropped after free")
	}
}

func TestISRBUnsharedRelease(t *testing.T) {
	b := NewISRB(4, 6)
	freed, shared := b.Release(PReg(3))
	if freed || shared {
		t.Fatal("release of unshared register must report not-shared")
	}
}

func TestISRBCapacity(t *testing.T) {
	b := NewISRB(2, 6)
	if !b.Share(1) || !b.Share(2) {
		t.Fatal("shares within capacity rejected")
	}
	if b.Share(3) {
		t.Fatal("share beyond capacity accepted")
	}
	if b.ShareFullRejects == 0 {
		t.Fatal("rejection not counted")
	}
	// Re-sharing an existing entry still works at capacity.
	if !b.Share(1) {
		t.Fatal("re-share of existing entry rejected at capacity")
	}
	// Freeing an entry reopens capacity.
	b.Release(2)
	b.Release(2)
	if !b.Share(3) {
		t.Fatal("share after free rejected")
	}
}

func TestISRBUnrefOnSquash(t *testing.T) {
	b := NewISRB(4, 6)
	p := PReg(5)
	b.Share(p)
	b.Share(p) // two speculative sharers
	// Squash both sharers: entry disappears, register stays with owner.
	if freed, _ := b.Unref(p); freed {
		t.Fatal("unref freed too early")
	}
	if freed, _ := b.Unref(p); freed {
		t.Fatal("entry with no refs and no releases must not free the register")
	}
	if b.Shared(p) {
		t.Fatal("entry should be dropped when counters return to zero")
	}
	// The owner's eventual release now sees an unshared register.
	if _, shared := b.Release(p); shared {
		t.Fatal("released register should no longer be tracked")
	}
}

func TestISRBSquashAfterOwnerRelease(t *testing.T) {
	b := NewISRB(4, 6)
	p := PReg(9)
	b.Share(p)                           // speculative sharer
	if freed, _ := b.Release(p); freed { // owner's mapping released first
		t.Fatal("must wait for the sharer")
	}
	freed, _ := b.Unref(p) // sharer squashed: now all refs gone
	if !freed {
		t.Fatal("squash of last sharer after owner release must free")
	}
}

func TestISRBCounterSaturation(t *testing.T) {
	b := NewISRB(1, 2) // 2-bit counters: max 3
	p := PReg(1)
	for i := 0; i < 3; i++ {
		if !b.Share(p) {
			t.Fatalf("share %d rejected", i)
		}
	}
	if b.Share(p) {
		t.Fatal("share beyond counter ceiling accepted")
	}
}

func TestISRBDropOwner(t *testing.T) {
	b := NewISRB(4, 6)
	b.Share(2)
	b.Unref(2) // sharer squashed
	b.DropOwner(2)
	if b.Shared(2) || b.Len() != 0 {
		t.Fatal("DropOwner left state behind")
	}
}

func TestISRBStorage(t *testing.T) {
	b := NewISRB(24, 6)
	// 24 entries x (two 6-bit counters + 9-bit preg tag) = 63 bytes of
	// counters per the paper's §VI-B accounting.
	bits := b.StorageBits(9, 6)
	if bits != 24*(12+9) {
		t.Fatalf("StorageBits = %d", bits)
	}
}

// Model-based property test. A register carries one implicit owner
// reference plus one reference per sharer. Each sharer eventually either
// releases (its reference committed away) or squashes (Unref); the owner
// releases exactly once. Invariant: the register dies at exactly the last
// reference-removing event — reported either by the ISRB (freed=true) or,
// when the entry was already dropped by squashes, by Release observing an
// untracked register (shared=false, caller frees directly).
func TestQuickISRBModel(t *testing.T) {
	f := func(seed int64, nSharers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewISRB(0, 6) // unbounded entries, 6-bit counters
		p := PReg(1)

		k := int(nSharers%20) + 1
		for i := 0; i < k; i++ {
			if !b.Share(p) {
				return false
			}
		}
		// Events: one owner release + one event per sharer.
		events := make([]int, 0, k+1)
		events = append(events, 0) // owner release
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				events = append(events, 1) // sharer releases
			} else {
				events = append(events, 2) // sharer squashes
			}
		}
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

		for i, ev := range events {
			last := i == len(events)-1
			var dead bool
			switch ev {
			case 0, 1:
				freed, shared := b.Release(p)
				dead = freed || !shared
			case 2:
				freed, _ := b.Unref(p)
				dead = freed
				if last && !dead {
					// A final squash may instead drop the
					// entry, leaving the owner's already
					// -counted release as the killer; that
					// case is covered by Release returning
					// freed above. The entry must be gone
					// either way.
					dead = !b.Shared(p)
				}
			}
			if dead != last {
				return false
			}
		}
		return !b.Shared(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// scanISRB is the linear-scan ISRB the slot index replaced, kept as the
// reference model: every lookup walks the entries for the first valid one
// holding the register.
type scanISRB struct {
	entries []isrbEntry
	max     int
	ctrMax  uint8
}

func (b *scanISRB) find(p PReg) *isrbEntry {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].preg == p {
			return &b.entries[i]
		}
	}
	return nil
}

func (b *scanISRB) drop(e *isrbEntry) {
	e.valid = false
	for n := len(b.entries); n > 0 && !b.entries[n-1].valid; n = len(b.entries) {
		b.entries = b.entries[:n-1]
	}
}

func (b *scanISRB) share(p PReg) bool {
	if e := b.find(p); e != nil {
		if e.referenced >= b.ctrMax {
			return false
		}
		e.referenced++
		return true
	}
	for i := range b.entries {
		if !b.entries[i].valid {
			b.entries[i] = isrbEntry{preg: p, referenced: 1, valid: true}
			return true
		}
	}
	if b.max > 0 && len(b.entries) >= b.max {
		return false
	}
	b.entries = append(b.entries, isrbEntry{preg: p, referenced: 1, valid: true})
	return true
}

func (b *scanISRB) release(p PReg, squash bool) (freed, shared bool) {
	e := b.find(p)
	if e == nil {
		return false, false
	}
	if squash {
		if e.referenced > 0 {
			e.referenced--
		}
	} else if e.committed < b.ctrMax {
		e.committed++
	} else {
		b.drop(e)
		return true, true
	}
	if e.committed > e.referenced {
		b.drop(e)
		return true, true
	}
	if squash && e.referenced == 0 && e.committed == 0 {
		b.drop(e)
	}
	return false, true
}

// TestISRBIndexEqualsScan drives random Share, Release, Unref and DropOwner
// sequences through the indexed ISRB and the linear-scan model, on bounded
// and unbounded buffers, and requires identical results and identical entry
// slices (so checkpoint bytes cannot differ). Halfway through each sequence
// the ISRB is checkpointed and restored into a fresh one, whose rebuilt
// index must carry on exactly.
func TestISRBIndexEqualsScan(t *testing.T) {
	for _, shape := range []struct{ entries, ctrBits int }{{0, 6}, {0, 2}, {4, 2}, {24, 6}} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := NewISRB(shape.entries, shape.ctrBits)
			ref := &scanISRB{max: shape.entries, ctrMax: b.ctrMax}
			const steps = 4000
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					var err error
					if b, err = walkRoundTrip(t, b, shape.entries, shape.ctrBits); err != nil {
						t.Fatal(err)
					}
				}
				p := PReg(1 + rng.Intn(40))
				switch op := rng.Intn(4); op {
				case 0:
					if got, want := b.Share(p), ref.share(p); got != want {
						t.Fatalf("%+v seed %d step %d: Share(%d) = %v, want %v", shape, seed, step, p, got, want)
					}
				case 1, 2:
					var f, s bool
					if op == 1 {
						f, s = b.Release(p)
					} else {
						f, s = b.Unref(p)
					}
					wf, ws := ref.release(p, op == 2)
					if f != wf || s != ws {
						t.Fatalf("%+v seed %d step %d: op %d on %d = %v,%v, want %v,%v", shape, seed, step, op, p, f, s, wf, ws)
					}
				case 3:
					b.DropOwner(p)
					if e := ref.find(p); e != nil {
						ref.drop(e)
					}
				}
				if !slices.Equal(b.entries, ref.entries) {
					t.Fatalf("%+v seed %d step %d: entries %v, want %v", shape, seed, step, b.entries, ref.entries)
				}
			}
		}
	}
}

// walkRoundTrip checkpoints b and restores it into a fresh ISRB, returning
// the restore's error.
func walkRoundTrip(t *testing.T, b *ISRB, entries, ctrBits int) (*ISRB, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := ckpt.NewEncoder(&buf)
	b.Walk(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := ckpt.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := NewISRB(entries, ctrBits)
	got.Walk(dec)
	return got, dec.Close()
}

// TestISRBRebuildRefusesForgedEntries: a checkpoint whose checksum holds
// but whose entries no sharing could have made — a register outside the
// index's range or two live entries for one register — fails the restore
// instead of indexing out of range or answering for the wrong entry.
func TestISRBRebuildRefusesForgedEntries(t *testing.T) {
	for name, entries := range map[string][]isrbEntry{
		"zero register": {{preg: ZeroPReg, referenced: 1, valid: true}},
		"negative":      {{preg: -5, referenced: 1, valid: true}},
		"huge":          {{preg: maxSharedPReg, referenced: 1, valid: true}},
		"duplicate":     {{preg: 7, referenced: 1, valid: true}, {preg: 7, referenced: 2, valid: true}},
	} {
		forged := NewISRB(0, 6)
		forged.entries = entries
		if _, err := walkRoundTrip(t, forged, 0, 6); err == nil {
			t.Errorf("%s: restore accepted forged entries %+v", name, entries)
		}
	}
}
