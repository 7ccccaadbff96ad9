package pipeline

import "math/rand"

// countingSource wraps math/rand's default source and counts how many times it
// has advanced, making the generator position checkpointable: the runtime
// source steps its internal state exactly once per Int63 or Uint64 call, so
// reseeding and replaying `steps` draws reproduces the position bit-exactly.
// The core only ever consumes the RNG through predictor tie-breaks
// (rng.Intn(2)), so the replay cost at restore is microscopic.
type countingSource struct {
	src   rand.Source64
	seed  int64
	steps uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

func (s *countingSource) Int63() int64 {
	s.steps++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.steps++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.seed = seed
	s.steps = 0
}

// Rebuild reseeds the source with seed and replays it forward to step
// position steps, both set by Restore from a checkpoint.
func (s *countingSource) Rebuild() error {
	n := s.steps
	s.Seed(s.seed)
	for range n {
		s.src.Int63()
	}
	s.steps = n
	return nil
}
