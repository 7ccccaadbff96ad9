package trace

import (
	"fmt"

	"rsepsim/internal/ckpt"
)

// Walk hands the replay window coordinates to s. The buffered instructions
// themselves are not stored: sources are pure functions of their seed, so a
// decoder queues Rebuild to redraw the window from a fresh source. This
// keeps checkpoints independent of the ring's grown capacity and of
// uarch.Inst's in-memory layout. Before decoding, Reset the buffer to a
// fresh source identical to the one the checkpoint was taken over,
// positioned at its first instruction.
func (r *Replay) Walk(s *ckpt.Stream) {
	s.Tag("replay")
	s.U64(&r.head)
	s.Int(&r.size)
	s.Int(&r.pos)
	s.Bool(&r.done)
	s.Rebuild(r)
}

// Rebuild fast-forwards the source past the released prefix and redraws the
// retained window. It errors if the source runs dry first, which means the
// source does not match the checkpointed stream.
func (r *Replay) Rebuild() error {
	head, size := r.head, r.size
	r.size = 0
	for i := uint64(0); i < head; i++ {
		if _, ok := r.src.Next(); !ok {
			return fmt.Errorf("trace: source exhausted at instruction %d restoring a replay window released through %d", i, head)
		}
	}
	for r.size < size {
		if r.size == len(r.ring) {
			r.grow() // re-places slots relative to head, which is already set
		}
		in, ok := r.src.Next()
		if !ok {
			return fmt.Errorf("trace: source exhausted at instruction %d restoring a replay window of %d retained", head+uint64(r.size), size)
		}
		in.Seq = head + uint64(r.size)
		*r.at(in.Seq) = in
		r.size++
	}
	r.nextSeq = head + uint64(size)
	return nil
}
