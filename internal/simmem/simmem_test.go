package simmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWrite(t *testing.T) {
	m := new(Memory)
	m.Write64(0x1000, 42)
	if got := m.Read64(0x1000); got != 42 {
		t.Fatalf("Read64 = %d, want 42", got)
	}
	if got := m.Read64(0x2000); got != 0 {
		t.Fatalf("untouched read = %d, want 0", got)
	}
}

func TestFillPattern(t *testing.T) {
	m := new(Memory)
	m.Fill = 0xdead
	if got := m.Read64(0x5000); got != 0xdead {
		t.Fatalf("fill read = %#x, want 0xdead", got)
	}
	// Writing one word materialises the page with the fill pattern.
	m.Write64(0x5000, 1)
	if got := m.Read64(0x5008); got != 0xdead {
		t.Fatalf("sibling word = %#x, want fill", got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	m.Write64(0x10, 7)
	if m.Read64(0x10) != 7 {
		t.Fatal("zero-value Memory unusable")
	}
}

func TestFootprint(t *testing.T) {
	m := new(Memory)
	m.Write64(0, 1)
	m.Write64(4096, 1)
	m.Write64(4100, 2) // same page
	if m.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", m.Pages())
	}
	if m.Footprint() != 2*4096 {
		t.Fatalf("Footprint = %d", m.Footprint())
	}
	m.Reset()
	if m.Pages() != 0 {
		t.Fatal("Reset did not drop pages")
	}
}

// A page Reset takes back is handed out again for a write anywhere: it must
// come back holding only the fill pattern, not the words of its last life.
func TestResetRecyclesClearedPages(t *testing.T) {
	for _, fill := range []uint64{0, 0xdead} {
		m := new(Memory)
		for a := uint64(0); a < 8*pageBytes; a += 8 {
			m.Write64(a, a|1)
		}
		m.Reset()
		m.Fill = fill
		if m.Pages() != 0 || m.Footprint() != 0 {
			t.Fatalf("after Reset: %d pages, footprint %d", m.Pages(), m.Footprint())
		}
		for p := uint64(0); p < 8; p++ {
			base := (100 + p) * pageBytes // other addresses than before
			m.Write64(base, 1)
			for a := base + 8; a < base+pageBytes; a += 8 {
				if got := m.Read64(a); got != fill {
					t.Fatalf("fill %#x: recycled page reads %#x at %#x", fill, got, a)
				}
			}
		}
	}
}

// Property: the last write to an address wins, across random sequences.
func TestQuickLastWriteWins(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := new(Memory)
		model := map[uint64]uint64{}
		for i := 0; i < int(n)+1; i++ {
			addr := uint64(rng.Intn(1<<20)) &^ 7
			v := rng.Uint64()
			m.Write64(addr, v)
			model[addr] = v
		}
		for a, v := range model {
			if m.Read64(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
