package rsep

import "rsepsim/internal/ckpt"

// Walk hands the underlying TAGE engine to s.
func (d *TAGEDist) Walk(s *ckpt.Stream) {
	s.Tag("distpred:tage")
	d.tage.Walk(s)
}

// Walk hands the underlying gshare tables to s.
func (d *GShareDist) Walk(s *ckpt.Stream) {
	s.Tag("distpred:gshare")
	d.g.Walk(s)
}

// Walk hands the ring, CSN window and statistics to s. The bucket heads are
// not stored: a decoder queues Rebuild to derive them from the window.
func (h *FIFOHistory) Walk(s *ckpt.Stream) {
	s.Tag("pairer:fifo")
	ckpt.Fixed(s, h.ring)
	s.U64(&h.minCSN)
	s.U64(&h.nextCSN)
	s.U64(&h.Finds)
	s.U64(&h.Matches)
	s.U64(&h.PredictedMatches)
	s.Rebuild(h)
}

// Rebuild reconstructs each bucket's most recent CSN by replaying the live
// CSN window in push order. Heads that pointed below the window when the
// checkpoint was taken come back as noCSN, which the chain walk treats
// identically (both terminate before reading a slot).
func (h *FIFOHistory) Rebuild() error {
	for i := range h.heads {
		h.heads[i] = noCSN
	}
	for csn := h.minCSN; csn < h.nextCSN; csn++ {
		h.heads[h.ring[h.slot(csn)].hash&h.bktMask] = csn
	}
	return nil
}

// Walk hands the table and statistics to s.
func (d *DDT) Walk(s *ckpt.Stream) {
	s.Tag("pairer:ddt")
	ckpt.Fixed(s, d.entries)
	s.U64(&d.Finds)
	s.U64(&d.Matches)
}

// Walk hands the confidence table and statistics to s.
func (z *ZeroPredictor) Walk(s *ckpt.Stream) {
	s.Tag("zeropred")
	ckpt.Fixed(s, z.entries)
	s.U64(&z.Lookups)
	s.U64(&z.Predicted)
}

// Walk hands the stored hashes to s.
func (h *HRF) Walk(s *ckpt.Stream) {
	s.Tag("hrf")
	ckpt.Fixed(s, h.hashes)
}
