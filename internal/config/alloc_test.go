//go:build !race

package config

import (
	"testing"

	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
)

// TestHashAllocs: hashing allocates only the digest string. (The race
// detector makes sync.Pool drop items at random, hence the build tag.)
func TestHashAllocs(t *testing.T) {
	c := TableI().WithRSEP(rsep.Realistic()).WithVP(vpred.BeBoP())
	if n := testing.AllocsPerRun(100, func() { _ = c.SeedlessHash() }); n > 1 {
		t.Errorf("SeedlessHash allocates %v times, want 1 (the digest)", n)
	}
}
