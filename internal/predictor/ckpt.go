package predictor

import "rsepsim/internal/ckpt"

// Walk hands the full history state to s. The folded registers carry their
// geometry (fold widths) inline; a decoder overwrites them with identical
// values when the geometries match and fails on a length mismatch.
func (g *GlobalHistory) Walk(s *ckpt.Stream) {
	s.Tag("ghist")
	ckpt.Fixed(s, g.bits)
	s.Int(&g.pos)
	s.U64(&g.path)
	ckpt.Fixed(s, g.folds)
}

// Walk hands every table and the aging clock to s. Tagged components are
// coded as their struct-of-arrays halves — metadata then payloads, per
// component (format version 3). The allocation RNG is shared and
// checkpointed by its owner.
func (t *TAGE[P]) Walk(s *ckpt.Stream) {
	s.Tag("tage")
	ckpt.Fixed(s, t.base)
	for i, tbl := range t.tables {
		ckpt.Fixed(s, tbl)
		ckpt.Fixed(s, t.payloads[i])
	}
	s.Int(&t.ticks)
}

// Walk hands both tables to s.
func (g *GShare[P]) Walk(s *ckpt.Stream) {
	s.Tag("gshare")
	ckpt.Fixed(s, g.pcTab)
	ckpt.Fixed(s, g.ghTab)
}
