// Package trace defines the dynamic instruction stream interface between the
// workload generators and the timing model, and the replay buffer the
// pipeline uses to re-fetch instructions after a squash.
package trace

import "rsepsim/internal/uarch"

// Source produces a stream of dynamic instructions.
type Source interface {
	// Next returns the next instruction. ok is false when the stream is
	// exhausted.
	Next() (in uarch.Inst, ok bool)
}

// Replay adapts a Source for speculative consumption: the pipeline fetches
// through it, and on a squash rewinds to an earlier sequence number so the
// same dynamic instructions stream out again. Instructions are retained
// until released (committed), bounding the buffer at roughly the inflight
// window.
//
// The retained window lives in a power-of-two ring indexed by sequence
// number, so Release is a pure head/size adjustment — amortized O(1), no
// copying or reallocation per commit — and the storage is reused forever
// once the ring has grown to the inflight window.
//
// Replay assigns the Seq field: sequence numbers are consecutive from 0.
type Replay struct {
	src Source

	ring []uarch.Inst // instruction with Seq s lives at ring[s&(len-1)]
	head uint64       // sequence number of the oldest retained instruction
	size int          // number of retained instructions
	pos  int          // offset from head of the next instruction to deliver

	nextSeq uint64
	done    bool
}

// NewReplay wraps src.
func NewReplay(src Source) *Replay { return &Replay{src: src} }

// Reset rebinds the buffer to a new source and rewinds all sequencing state,
// keeping the grown ring. A worker that replays many jobs through one Replay
// pays the ring allocation once: after the first job the refill path recycles
// the retained storage forever.
func (r *Replay) Reset(src Source) {
	r.src = src
	r.head, r.size, r.pos = 0, 0, 0
	r.nextSeq = 0
	r.done = false
}

func (r *Replay) at(seq uint64) *uarch.Inst { return &r.ring[seq&uint64(len(r.ring)-1)] }

// grow doubles the ring, re-placing the retained window under the new mask.
func (r *Replay) grow() {
	n := 2 * len(r.ring)
	if n == 0 {
		n = 256
	}
	fresh := make([]uarch.Inst, n)
	mask := uint64(n - 1)
	for i := 0; i < r.size; i++ {
		s := r.head + uint64(i)
		fresh[s&mask] = *r.at(s)
	}
	r.ring = fresh
}

// refillBatch is the number of instructions pulled from the source per
// refill. Batching amortizes the source's per-call overhead and keeps the
// fetch stage on the ring fast path almost always.
const refillBatch = 64

// refill pulls up to refillBatch instructions from the source into the ring
// ahead of the delivery position, writing each directly into its ring slot.
// The source is pure (its state does not depend on pipeline timing) and the
// delivery order is unchanged, so pre-pulling is invisible to the consumer.
func (r *Replay) refill() {
	if r.done {
		return
	}
	for n := 0; n < refillBatch; n++ {
		if r.size == len(r.ring) {
			r.grow()
		}
		in, ok := r.src.Next()
		if !ok {
			r.done = true
			return
		}
		in.Seq = r.nextSeq
		r.nextSeq++
		*r.at(in.Seq) = in
		r.size++
	}
}

// Next returns the next instruction to fetch (possibly a replayed one).
func (r *Replay) Next() (uarch.Inst, bool) {
	if r.pos == r.size {
		r.refill()
		if r.pos == r.size {
			return uarch.Inst{}, false
		}
	}
	in := *r.at(r.head + uint64(r.pos))
	r.pos++
	return in, true
}

// Peek returns the next instruction without consuming it. The pointer is
// valid until the next Peek/Next/RewindTo call. A fetch stage that stalls on
// the instruction (icache miss, queue full) simply does not Advance — no
// rewind needed.
func (r *Replay) Peek() (*uarch.Inst, bool) {
	if r.pos == r.size {
		r.refill()
		if r.pos == r.size {
			return nil, false
		}
	}
	return r.at(r.head + uint64(r.pos)), true
}

// Advance consumes the instruction last returned by Peek.
func (r *Replay) Advance() { r.pos++ }

// Window returns the next instructions to deliver — up to max — without
// consuming them, refilling from the source exactly when Peek would (only
// when nothing is buffered). The slice aliases the ring, so it is valid only
// until the next call that refills or grows (Window, Peek, Next); consume a
// prefix with AdvanceN before asking for more.
//
// The result can be shorter than both max and the buffered count when the
// run wraps the ring boundary; an empty result means the source is exhausted.
// Callers wanting max instructions loop: process, AdvanceN, Window again.
func (r *Replay) Window(max int) []uarch.Inst {
	if r.pos == r.size {
		r.refill()
		if r.pos == r.size {
			return nil
		}
	}
	if avail := r.size - r.pos; max > avail {
		max = avail
	}
	start := int((r.head + uint64(r.pos)) & uint64(len(r.ring)-1))
	if rest := len(r.ring) - start; max > rest {
		max = rest
	}
	return r.ring[start : start+max]
}

// AdvanceN consumes the first n instructions of the slice last returned by
// Window.
func (r *Replay) AdvanceN(n int) { r.pos += n }

// RewindTo makes seq the next instruction delivered by Next. seq must still
// be retained (not yet released).
func (r *Replay) RewindTo(seq uint64) {
	if seq < r.head || seq > r.head+uint64(r.size) {
		panic("trace: rewind outside retained window")
	}
	r.pos = int(seq - r.head)
}

// Release discards instructions with sequence numbers <= seq; they can no
// longer be replayed.
func (r *Replay) Release(seq uint64) {
	if seq < r.head {
		return
	}
	n := int(seq - r.head + 1)
	if n > r.pos {
		n = r.pos // never drop undelivered instructions
	}
	if n <= 0 {
		return
	}
	r.head += uint64(n)
	r.size -= n
	r.pos -= n
}

// Retained reports the number of delivered instructions still replayable
// (the inflight window). Pre-pulled instructions that have not been
// delivered yet are not counted.
func (r *Replay) Retained() int { return r.pos }
