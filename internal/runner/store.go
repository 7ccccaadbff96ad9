package runner

import (
	"time"

	"rsepsim/internal/metrics"
)

// Counters is a snapshot of a Store's lookup statistics.
type Counters struct {
	// Hits counts lookups served from the store (no simulation needed).
	Hits uint64
	// Misses counts lookups that found nothing usable — each miss
	// corresponds to one simulation the caller had to run.
	Misses uint64
	// Stale counts lookups that found an entry but rejected it (corrupt,
	// truncated, schema-mismatched, or mis-keyed on disk). Every stale
	// lookup is also a miss.
	Stale uint64
}

// Add returns the component-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{Hits: c.Hits + o.Hits, Misses: c.Misses + o.Misses, Stale: c.Stale + o.Stale}
}

// Sub returns the component-wise difference c - o (for interval deltas).
func (c Counters) Sub(o Counters) Counters {
	return Counters{Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses, Stale: c.Stale - o.Stale}
}

// Store is a result store consulted by the Scheduler before simulating and
// updated after. Implementations must be safe for concurrent use and must
// hand out snapshots: a caller mutating a returned *metrics.Stats must never
// affect a later Get.
//
// Entries are deterministic simulation outcomes keyed by Key, so a store
// needs no invalidation — equal keys guarantee identical stats, and a Put
// racing another Put of the same key writes identical content. The in-memory
// Cache and the tiered memory-over-disk store in internal/store both satisfy
// this interface.
type Store interface {
	// Get returns a snapshot of the stats stored under k, or ok=false if
	// the store holds no usable entry. Get never fails: a damaged entry is
	// reported as a miss (and counted stale), not as an error.
	Get(k Key) (st *metrics.Stats, ok bool)
	// Put records st under k. simTime is the wall-clock cost of the
	// simulation that produced st; persistent stores keep it so cache
	// economics stay observable (see cmd/rsepcache stats). Put is
	// best-effort: implementations swallow I/O errors rather than fail the
	// simulation that produced the result.
	Put(k Key, st *metrics.Stats, simTime time.Duration)
	// Counters reports cumulative lookup statistics.
	Counters() Counters
}
