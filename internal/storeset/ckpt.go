package storeset

import "rsepsim/internal/ckpt"

// Walk hands the SSIT, LFST, SSID allocator and statistics to s.
func (t *Table) Walk(s *ckpt.Stream) {
	s.Tag("storeset")
	ckpt.Fixed(s, t.ssit)
	ckpt.Fixed(s, t.lfst)
	next := int64(t.nextSSID)
	s.I64(&next)
	t.nextSSID = int32(next)
	s.U64(&t.Violations)
	s.U64(&t.Merges)
}
