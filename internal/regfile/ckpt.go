package regfile

import "rsepsim/internal/ckpt"

// Walk hands the register values, ready cycles, allocation map, waiter lists
// and both free lists (whose order determines future allocations and so must
// be preserved exactly) to s.
func (f *File) Walk(s *ckpt.Stream) {
	s.Tag("prf")
	ckpt.Fixed(s, f.vals)
	ckpt.Fixed(s, f.readyAt)
	ckpt.Fixed(s, f.alloc)
	for i := range f.waiters {
		ckpt.Slice(s, &f.waiters[i])
	}
	ckpt.Slice(s, &f.intFree)
	ckpt.Slice(s, &f.fpFree)
}

// Walk hands the architectural-to-physical mappings to s.
func (r *RAT) Walk(s *ckpt.Stream) {
	s.Tag("rat")
	ckpt.Fixed(s, r.m)
}

// Walk hands the live entries and statistics to s.
func (b *ISRB) Walk(s *ckpt.Stream) {
	s.Tag("isrb")
	ckpt.Slice(s, &b.entries)
	s.U64(&b.ShareOK)
	s.U64(&b.ShareFullRejects)
	s.U64(&b.Frees)
}
