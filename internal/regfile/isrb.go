package regfile

// ISRB is the Inflight Shared Registers Buffer: a small fully associative
// structure allocated on demand when a register becomes shared. Each entry
// carries two counters: referenced counts sharing events (including
// speculative ones) and committed counts de-reference events. The register
// (and entry) is freed when committed becomes strictly greater than
// referenced — i.e. when the implicit initial reference and every sharer
// have released it — or when committed overflows. See §IV-E2 of the paper
// and Perais & Seznec, "Cost-effective physical register sharing", HPCA
// 2016.
//
// The pipeline recovers from squashes by walking the ROB backwards; a
// squashed sharer calls Unref, which plays the role of the paper's
// checkpointed-referenced restore one instruction at a time.
type ISRB struct {
	entries []isrbEntry
	// slotOf[p] is one plus the index of p's valid entry, 0 when p has
	// none: the lookup of every Share, Release and Unref without a scan.
	// It grows to the highest register ever shared and is not
	// checkpointed; Rebuild derives it from the entries.
	slotOf []int32
	max    int   // 0 = unbounded (ideal)
	ctrMax uint8 // counter ceiling (Table: two 6-bit counters -> 63)

	// Stats
	ShareOK, ShareFullRejects, Frees uint64
}

type isrbEntry struct {
	preg       PReg
	referenced uint8
	committed  uint8
	valid      bool
}

// NewISRB builds an ISRB with the given capacity (0 = unbounded) and counter
// width in bits (Table I uses 24 entries of two 6-bit counters).
func NewISRB(entries, counterBits int) *ISRB {
	ctrMax := uint8(1<<uint(counterBits) - 1)
	b := &ISRB{max: entries, ctrMax: ctrMax}
	if entries > 0 {
		b.entries = make([]isrbEntry, 0, entries)
	}
	return b
}

// Reset drops every entry and zeroes the statistics in place.
func (b *ISRB) Reset() {
	clear(b.slotOf)
	b.entries = b.entries[:0]
	b.ShareOK, b.ShareFullRejects, b.Frees = 0, 0, 0
}

func (b *ISRB) find(p PReg) *isrbEntry {
	if p < 0 || int(p) >= len(b.slotOf) || b.slotOf[p] == 0 {
		return nil
	}
	return &b.entries[b.slotOf[p]-1]
}

// index records that entry i holds p.
func (b *ISRB) index(i int, p PReg) {
	if n := int(p) + 1; n > len(b.slotOf) {
		b.slotOf = append(b.slotOf, make([]int32, n-len(b.slotOf))...)
	}
	b.slotOf[p] = int32(i + 1)
}

func (b *ISRB) drop(e *isrbEntry) {
	e.valid = false
	b.slotOf[e.preg] = 0
	// Compact lazily: trim trailing invalid entries.
	for n := len(b.entries); n > 0 && !b.entries[n-1].valid; n = len(b.entries) {
		b.entries = b.entries[:n-1]
	}
}

// Share records one more (speculative) reference to p. It returns false when
// no sharing can take place: the buffer is full or the counter is saturated,
// in which case the caller must fall back to a normal allocation (§IV-E2:
// "If no ISRB entry is free, no sharing takes place").
func (b *ISRB) Share(p PReg) bool {
	if e := b.find(p); e != nil {
		if e.referenced >= b.ctrMax {
			b.ShareFullRejects++
			return false
		}
		e.referenced++
		b.ShareOK++
		return true
	}
	// Allocate the first invalid entry, else append one.
	for i := range b.entries {
		if !b.entries[i].valid {
			b.entries[i] = isrbEntry{preg: p, referenced: 1, valid: true}
			b.index(i, p)
			b.ShareOK++
			return true
		}
	}
	if b.max > 0 && len(b.entries) >= b.max {
		b.ShareFullRejects++
		return false
	}
	b.entries = append(b.entries, isrbEntry{preg: p, referenced: 1, valid: true})
	b.index(len(b.entries)-1, p)
	b.ShareOK++
	return true
}

// Shared reports whether p currently has an ISRB entry.
func (b *ISRB) Shared(p PReg) bool { return b.find(p) != nil }

// Release records a committed de-reference of p. It returns (freed, shared):
// shared is false when p had no entry (the caller owns the only reference
// and frees the register directly); freed is true when the entry determined
// that all references are gone and the register must be returned to the free
// list.
func (b *ISRB) Release(p PReg) (freed, shared bool) {
	e := b.find(p)
	if e == nil {
		return false, false
	}
	overflow := e.committed == b.ctrMax
	if !overflow {
		e.committed++
	}
	if overflow || e.committed > e.referenced {
		b.drop(e)
		b.Frees++
		return true, true
	}
	return false, true
}

// Unref undoes one speculative reference to p when a sharing instruction is
// squashed. Returns (freed, shared) with the same meaning as Release.
func (b *ISRB) Unref(p PReg) (freed, shared bool) {
	e := b.find(p)
	if e == nil {
		return false, false
	}
	if e.referenced > 0 {
		e.referenced--
	}
	if e.committed > e.referenced {
		b.drop(e)
		b.Frees++
		return true, true
	}
	if e.referenced == 0 && e.committed == 0 {
		// No sharers remain and nothing was released: the register is
		// again privately owned; the entry is no longer needed.
		b.drop(e)
		return false, true
	}
	return false, true
}

// DropOwner removes p's entry when the instruction that originally allocated
// p is itself squashed. All sharers are necessarily younger and have already
// been unreferenced by the backwards walk; the caller returns p to the free
// list.
func (b *ISRB) DropOwner(p PReg) {
	if e := b.find(p); e != nil {
		b.drop(e)
	}
}

// Len reports the number of live entries.
func (b *ISRB) Len() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}

// StorageBits returns the buffer's storage (two counters plus a physical
// register tag per entry), as accounted in §VI-B.
func (b *ISRB) StorageBits(pregBits, counterBits int) int {
	n := b.max
	if n == 0 {
		n = len(b.entries)
	}
	return n * (2*counterBits + pregBits)
}
