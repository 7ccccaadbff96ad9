package rsep

import (
	"rsepsim/internal/ckpt"
	"rsepsim/internal/predictor"
)

// Pairer is the commit-side structure that, given the hash of a committing
// instruction's result, finds an older instruction that produced the same
// hash and returns the instruction distance (IDist) between them. Two
// implementations exist: the FIFO history (§IV-B2) and the Data Dependency
// Table (§IV-B1, the NoSQ-style alternative the paper argues against).
type Pairer interface {
	// Find looks for an older instruction whose result hash equals hash.
	// csn is the committing instruction's commit sequence number in
	// eligible-instruction space. predicted, when non-zero, is the
	// distance the predictor currently expects for this instruction;
	// implementations that can see several matches privilege it
	// (§VI-A2). Returns the distance and whether a pair was found.
	Find(hash uint32, csn uint64, predicted uint16) (dist uint16, ok bool)
	// Push records a committed instruction's result hash.
	Push(hash uint32, csn uint64)
	// StorageBits accounts the structure's storage.
	StorageBits() int
	// Reset clears all recorded history in place, as if freshly constructed.
	Reset()
	// Walk hands all recorded history to a checkpoint stream.
	Walk(s *ckpt.Stream)
}

// FIFOHistory keeps the hashes of the n most recently retired
// result-producing instructions in a circular buffer. Matching a committing
// hash against the buffer yields the IDist directly: with only
// result-producers pushed (the paper's "explicit" variant), the distance is
// the CSN difference; entries store their CSN (10 bits in the paper's
// 768-byte sizing).
//
// A hash index accelerates the software model: Find is O(1) expected instead
// of the hardware's parallel comparators. The modelled behaviour is identical
// — the index returns the most recent older match, and the predicted distance
// is privileged by probing that exact slot first.
//
// Data layout (DESIGN.md §3.2): the index is a flat chain-through-ring
// scheme, not a map. A power-of-two array of bucket heads records the most
// recent CSN pushed into each bucket, and every ring entry links to the
// previous CSN of its bucket chain. Because ring slots hold consecutive
// CSNs, an entry is live exactly when its CSN is inside [minCSN, nextCSN),
// so a chain walk terminates at the window edge without ever deleting
// anything: residency is bounded by the ring capacity by construction, and
// Push/Find are allocation-free and cache-resident.
//
// There are twice as many buckets as ring entries, but never more than
// there are hash values. In the 64K-entry ideal history every hash of 16
// bits or fewer thus has a bucket of its own, so a chain walk stops at its
// first entry, and the 14-bit history's heads take 128KB instead of 1MB.
//
// Ring entries are eight bytes: the consecutive-CSN invariant means an
// entry's own CSN is implied by its slot (within the live window there is
// exactly one CSN per slot), and the chain link is stored as a saturating
// 32-bit distance back rather than an absolute CSN — a saturated link lands
// below minCSN for any realisable capacity, terminating the walk exactly as
// the absolute form did. The 64K-entry ideal configuration thus stays a
// 512KB table instead of 1.5MB of padded 24-byte records.
type FIFOHistory struct {
	ring     []histEntry
	heads    []uint64 // bucket -> most recent CSN pushed there (noCSN if none)
	bktMask  uint32   // len(heads) - 1 (power of two)
	ringMask uint64   // capacity-1 when capacity is a power of two, else 0
	size     int      // configured size (0 = "unbounded")
	capacity int      // actual ring capacity
	hashBits int
	csnBits  int

	minCSN, nextCSN uint64

	Finds, Matches, PredictedMatches uint64
}

type histEntry struct {
	hash uint32
	// prevDelta is the distance back to the previous CSN in this entry's
	// bucket chain: prev = csn - prevDelta. 0 means no predecessor; the
	// value saturates at ^uint32(0), which is always below minCSN (the
	// window is at most the ring capacity), so a clamped link terminates
	// the chain walk exactly like a genuine out-of-window predecessor.
	prevDelta uint32
}

// noCSN terminates bucket chains.
const noCSN = ^uint64(0)

// NewFIFOHistory builds a history of n entries (n = 0 means unbounded — the
// "ideal, much larger than the ROB" configuration of §VI-A1, realised as a
// 64K ring since distances are 16-bit anyway). hashBits is the width of the
// hashes pushed; it caps the bucket heads and, with csnBits, sizes the
// storage accounting.
func NewFIFOHistory(n, hashBits, csnBits int) *FIFOHistory {
	h := new(FIFOHistory)
	h.Reshape(n, hashBits, csnBits)
	return h
}

// Reshape rewinds h to the state NewFIFOHistory(n, hashBits, csnBits)
// returns. The ring and the bucket heads keep their storage whenever it is
// large enough, so a core swept across history depths and hash widths holds
// on to its largest tables instead of rebuilding them for every config.
func (h *FIFOHistory) Reshape(n, hashBits, csnBits int) {
	capacity := n
	if capacity <= 0 {
		capacity = 1 << 16
	}
	// Twice the capacity of buckets (rounded to a power of two) keeps
	// expected chain occupancy below one entry per bucket; beyond one
	// bucket per hash value more buckets would stay empty. The bucket
	// count changes only chain lengths, never what Find returns.
	nb := predictor.Pow2Ceil(2 * capacity)
	if hashBits > 0 && hashBits < 32 {
		nb = min(nb, 1<<hashBits)
	}
	h.size, h.capacity = n, capacity
	h.hashBits, h.csnBits = hashBits, csnBits
	h.ring = reslice(h.ring, capacity)
	h.heads = reslice(h.heads, nb)
	h.bktMask = uint32(nb - 1)
	h.ringMask = uint64(predictor.Pow2Mask(capacity))
	h.Reset()
}

// reslice returns s with length n, reusing its backing array when it is
// large enough. Callers overwrite every element.
func reslice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (h *FIFOHistory) slot(csn uint64) uint64 {
	if h.ringMask != 0 {
		return csn & h.ringMask
	}
	return csn % uint64(h.capacity)
}

// Push implements Pairer. CSNs must arrive in consecutive ascending order
// (the commit path's eligible-instruction counter) — the ring's implied-CSN
// layout and the chain walk in Find both depend on it.
func (h *FIFOHistory) Push(hash uint32, csn uint64) {
	h.nextCSN = csn + 1
	b := hash & h.bktMask
	var pd uint32
	if p := h.heads[b]; p != noCSN {
		if d := csn - p; d <= uint64(^uint32(0)) {
			pd = uint32(d)
		} else {
			pd = ^uint32(0)
		}
	}
	h.ring[h.slot(csn)] = histEntry{hash: hash, prevDelta: pd}
	h.heads[b] = csn
	if csn+1 > uint64(h.capacity) {
		h.minCSN = csn + 1 - uint64(h.capacity)
	}
}

// lookupAt returns the entry for csn. Within the live window the slot's
// contents belong to csn by the consecutive-push invariant, so no stored CSN
// needs checking.
func (h *FIFOHistory) lookupAt(csn uint64) (histEntry, bool) {
	if csn >= h.nextCSN || csn < h.minCSN {
		return histEntry{}, false
	}
	return h.ring[h.slot(csn)], true
}

// Find implements Pairer.
func (h *FIFOHistory) Find(hash uint32, csn uint64, predicted uint16) (uint16, bool) {
	h.Finds++
	// Privilege the predicted distance: if the entry exactly predicted
	// instructions back carries the same hash, report that distance even
	// if a more recent chance match exists (§VI-A2).
	if predicted > 0 && uint64(predicted) <= csn {
		if e, ok := h.lookupAt(csn - uint64(predicted)); ok && e.hash == hash {
			h.PredictedMatches++
			h.Matches++
			return predicted, true
		}
	}
	// Walk this hash's bucket chain from the most recent entry. The first
	// same-hash entry is the most recent push of that hash; entries older
	// than the window terminate the walk (their slots may be recycled).
	last := noCSN
	for c := h.heads[hash&h.bktMask]; c != noCSN && c >= h.minCSN; {
		e := &h.ring[h.slot(c)]
		if e.hash == hash {
			last = c
			break
		}
		if e.prevDelta == 0 {
			break
		}
		c -= uint64(e.prevDelta)
	}
	if last == noCSN || last >= csn {
		return 0, false
	}
	d := csn - last
	if d > 0xffff {
		return 0, false
	}
	h.Matches++
	return uint16(d), true
}

// Residency reports how many pushed entries are currently indexed — by
// construction never more than the ring capacity, regardless of how many
// entries have been pushed (the map index this scheme replaced retained one
// stale key per distinct hash ever seen).
func (h *FIFOHistory) Residency() int {
	if h.nextCSN-h.minCSN < uint64(h.capacity) {
		return int(h.nextCSN - h.minCSN)
	}
	return h.capacity
}

// StorageBits implements Pairer: per-entry hash plus CSN (the explicit
// variant of §IV-D2a).
func (h *FIFOHistory) StorageBits() int {
	return h.capacity * (h.hashBits + h.csnBits)
}

// Len reports the capacity (0 = unbounded).
func (h *FIFOHistory) Len() int { return h.size }

// Reset implements Pairer: it clears the ring, bucket heads and CSN window in
// place, as if freshly constructed.
func (h *FIFOHistory) Reset() {
	clear(h.ring)
	for i := range h.heads {
		h.heads[i] = noCSN
	}
	h.minCSN, h.nextCSN = 0, 0
	h.Finds, h.Matches, h.PredictedMatches = 0, 0, 0
}

// ImplicitHistory is the §IV-D2b alternative FIFO implementation: every
// committed instruction is pushed (result producer or not), so the
// instruction distance is the position offset in the buffer and entries need
// no CSN field (448 bytes instead of 768 for 256 entries). The cost is that
// non-producing instructions occupy entries, shrinking the effective window
// — the §IV-D2c trade-off. Distances reported are in *all-instruction*
// space; the caller must push non-producers with an invalid hash.
type ImplicitHistory struct {
	ring     []uint32 // hash per slot; invalidHash for non-producers
	pos      uint64   // total pushes
	hashBits int

	Finds, Matches uint64
}

const invalidHash = ^uint32(0)

// NewImplicitHistory builds an implicit-distance history of n entries.
func NewImplicitHistory(n, hashBits int) *ImplicitHistory {
	if n <= 0 {
		n = 256
	}
	h := &ImplicitHistory{ring: make([]uint32, n), hashBits: hashBits}
	for i := range h.ring {
		h.ring[i] = invalidHash
	}
	return h
}

// PushProducer records a result-producing instruction's hash.
func (h *ImplicitHistory) PushProducer(hash uint32) {
	h.ring[h.pos%uint64(len(h.ring))] = hash
	h.pos++
}

// PushOther records a non-producing instruction (store, branch), which
// occupies a slot but can never match.
func (h *ImplicitHistory) PushOther() {
	h.ring[h.pos%uint64(len(h.ring))] = invalidHash
	h.pos++
}

// Find returns the distance (in all instructions) to the most recent older
// instruction with an equal hash. No CSN subtraction is needed: the distance
// is the scan offset (§IV-D2b, "the instruction distance is respected in
// the buffer").
func (h *ImplicitHistory) Find(hash uint32) (uint16, bool) {
	h.Finds++
	if hash == invalidHash {
		return 0, false
	}
	n := uint64(len(h.ring))
	limit := h.pos
	if limit > n {
		limit = n
	}
	for d := uint64(1); d <= limit; d++ {
		if h.ring[(h.pos-d)%n] == hash {
			h.Matches++
			return uint16(d), true
		}
	}
	return 0, false
}

// StorageBits accounts the hash-only entries (448 bytes for 256 entries of
// 14-bit hashes).
func (h *ImplicitHistory) StorageBits() int { return len(h.ring) * h.hashBits }

// DDT is the Data Dependency Table alternative (§IV-B1): a direct-mapped
// table indexed by the result hash whose entries hold the CSN of the last
// instruction that produced that hash. It forces a match with the most
// recent producer, so chance matches create noise (§VI-A2), and being
// indexed by value hashes it cannot be banked by PC — the paper's argument
// for preferring the FIFO.
type DDT struct {
	entries []ddtEntry
	csnBits int

	Finds, Matches uint64
}

type ddtEntry struct {
	csn   uint64
	valid bool
}

// NewDDT builds a DDT with the given entry count. The paper's reference
// point is an "unrealistic 16KB DDT"; 16KB at ~10 bits/entry ≈ 8K entries.
func NewDDT(entries, csnBits int) *DDT {
	return &DDT{entries: make([]ddtEntry, entries), csnBits: csnBits}
}

func (d *DDT) idx(hash uint32) int { return int(hash) % len(d.entries) }

// Find implements Pairer. The DDT cannot privilege a predicted distance: it
// only knows the most recent producer of the hash.
func (d *DDT) Find(hash uint32, csn uint64, _ uint16) (uint16, bool) {
	d.Finds++
	e := d.entries[d.idx(hash)]
	if !e.valid || e.csn >= csn {
		return 0, false
	}
	dist := csn - e.csn
	if dist > 0xffff {
		return 0, false
	}
	d.Matches++
	return uint16(dist), true
}

// Push implements Pairer.
func (d *DDT) Push(hash uint32, csn uint64) {
	d.entries[d.idx(hash)] = ddtEntry{csn: csn, valid: true}
}

// StorageBits implements Pairer.
func (d *DDT) StorageBits() int { return len(d.entries) * d.csnBits }

// Reset implements Pairer.
func (d *DDT) Reset() {
	clear(d.entries)
	d.Finds, d.Matches = 0, 0
}
