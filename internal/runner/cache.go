package runner

import (
	"bytes"
	"sync"
	"time"

	"rsepsim/internal/metrics"
)

// Cache is the in-process Store: a map of Key → Stats snapshots. It is safe
// for concurrent use; Get returns an independent snapshot so callers can
// never corrupt a cached entry. Entries are deterministic simulation
// outcomes, so the cache needs no invalidation; it lives and dies with the
// process — the tiered store in internal/store layers it over a persistent
// on-disk directory.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]metrics.Stats
	slices  map[SliceKey]metrics.Stats
	ckpts   map[CheckpointKey][]byte
	hits    uint64
	misses  uint64
}

var (
	_ Store      = (*Cache)(nil)
	_ SliceStore = (*Cache)(nil)
)

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[Key]metrics.Stats),
		slices:  make(map[SliceKey]metrics.Stats),
		ckpts:   make(map[CheckpointKey][]byte),
	}
}

// Get returns a copy of the cached stats for k, recording a hit or miss.
func (c *Cache) Get(k Key) (*metrics.Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return &st, true
}

// Put stores a snapshot of st under k. The simulation time is ignored — a
// process-local map has no economics to track.
func (c *Cache) Put(k Key, st *metrics.Stats, _ time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[k] = st.Snapshot()
}

// GetSlice returns a copy of the cached per-slice delta for k. Slice lookups
// do not move the whole-result hit/miss counters — they are an execution
// detail, not a result-plane outcome.
func (c *Cache) GetSlice(k SliceKey) (*metrics.Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.slices[k]
	if !ok {
		return nil, false
	}
	return &st, true
}

// PutSlice stores a snapshot of the per-slice delta under k.
func (c *Cache) PutSlice(k SliceKey, st *metrics.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slices[k] = st.Snapshot()
}

// GetCheckpoint returns the checkpoint blob stored under k. The stored slice
// is handed out directly: a checkpoint decoder never mutates its input, and
// the cache's copy is its own (see PutCheckpoint).
func (c *Cache) GetCheckpoint(k CheckpointKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, ok := c.ckpts[k]
	return blob, ok
}

// PutCheckpoint stores a copy of blob under k: the blob is borrowed, and
// the sliced runner reuses its buffer at the next boundary.
func (c *Cache) PutCheckpoint(k CheckpointKey, blob []byte) {
	blob = bytes.Clone(blob)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckpts[k] = blob
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters returns the cumulative lookup statistics. A purely in-memory
// cache never rejects an entry, so Stale is always zero.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{Hits: c.hits, Misses: c.misses}
}
