package branch

import "rsepsim/internal/ckpt"

// Walk hands the direction tables, BTB, RAS, speculative history and
// statistics to s. The tie-breaker RNG is shared across predictors and
// checkpointed by the core.
func (p *Predictor) Walk(s *ckpt.Stream) {
	s.Tag("branch")
	p.hist.Walk(s)
	ckpt.Fixed(s, p.bimodal)
	for _, tbl := range p.tables {
		ckpt.Fixed(s, tbl)
	}
	ckpt.Struct(s, &p.btb)
	ckpt.Struct(s, &p.ras)
	s.Int(&p.top)
	s.Int(&p.ticks)
	s.U64(&p.CondLookups)
	s.U64(&p.CondMispredicts)
	s.U64(&p.BTBMisses)
}
