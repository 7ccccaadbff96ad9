package vpred

import "rsepsim/internal/ckpt"

// Walk hands the last-value table, the stride TAGE and the statistics to s.
// The tie-breaker RNG is shared and checkpointed by the core.
func (d *DVTAGE) Walk(s *ckpt.Stream) {
	s.Tag("dvtage")
	ckpt.Fixed(s, d.lvt)
	d.tage.Walk(s)
	s.U64(&d.Lookups)
	s.U64(&d.Used)
	s.U64(&d.Correct)
	s.U64(&d.Wrong)
}
