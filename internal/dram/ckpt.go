package dram

import "rsepsim/internal/ckpt"

// TotalReadLatency returns the summed demand-read latency in cycles — the
// numerator of AvgReadLatency. Exposed so per-slice statistics can merge
// average latencies exactly (integer sums add; averages do not).
func (m *Memory) TotalReadLatency() uint64 { return m.totalLatency }

// Walk hands the bank state and statistics to s.
func (m *Memory) Walk(s *ckpt.Stream) {
	s.Tag("dram")
	ckpt.Fixed(s, m.banks)
	s.U64(&m.Reads)
	s.U64(&m.RowHits)
	s.U64(&m.RowConflicts)
	s.U64(&m.totalLatency)
}
