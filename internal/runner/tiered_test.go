package runner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
	"rsepsim/internal/workload"
)

// ckptCounter counts the checkpoints a store.Tiered serves, on either of the
// paths a restore reads by.
type ckptCounter struct {
	*store.Tiered
	hits int
}

func (c *ckptCounter) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	blob, ok := c.Tiered.GetCheckpoint(k)
	if ok {
		c.hits++
	}
	return blob, ok
}

func (c *ckptCounter) ReadCheckpoint(k runner.CheckpointKey, buf *bytes.Buffer) ([]byte, bool) {
	blob, ok := c.Tiered.ReadCheckpoint(k, buf)
	if ok {
		c.hits++
	}
	return blob, ok
}

// sliceOnly exposes exactly runner.Store and runner.SliceStore, the method
// set of a wrapper that does not know runner.CheckpointReader, so restores
// read through GetCheckpoint. It counts the checkpoints it serves.
type sliceOnly struct {
	inner *store.Tiered
	hits  int
}

func (s *sliceOnly) Get(k runner.Key) (*metrics.Stats, bool) { return s.inner.Get(k) }
func (s *sliceOnly) Put(k runner.Key, st *metrics.Stats, d time.Duration) {
	s.inner.Put(k, st, d)
}
func (s *sliceOnly) Counters() runner.Counters { return s.inner.Counters() }
func (s *sliceOnly) GetSlice(k runner.SliceKey) (*metrics.Stats, bool) {
	return s.inner.GetSlice(k)
}
func (s *sliceOnly) PutSlice(k runner.SliceKey, st *metrics.Stats) { s.inner.PutSlice(k, st) }
func (s *sliceOnly) PutCheckpoint(k runner.CheckpointKey, blob []byte) {
	s.inner.PutCheckpoint(k, blob)
}
func (s *sliceOnly) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	blob, ok := s.inner.GetCheckpoint(k)
	if ok {
		s.hits++
	}
	return blob, ok
}

var _ runner.CheckpointReader = (*ckptCounter)(nil)

// TestSlicedExtensionOverDisk is TestSlicedExtension over the store the
// commands mount: a read-write store.Tiered, which keeps checkpoints on disk
// only. Every boundary is encoded into the worker's one reused buffer, and
// the restore reads into that buffer too, so this also checks that the bytes
// on disk are the ones each boundary wrote. The second case hides
// runner.CheckpointReader behind a wrapper, so the restore takes the
// GetCheckpoint path instead.
func TestSlicedExtensionOverDisk(t *testing.T) {
	cfg := config.TableI()
	short := runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 10_000, Slices: 2}
	long := runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000, Slices: 4}
	mono, err := runner.Simulate(context.Background(), runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(mono)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		wrap func(*store.Tiered) (runner.Store, *int)
	}{
		{"reader", func(t *store.Tiered) (runner.Store, *int) {
			c := &ckptCounter{Tiered: t}
			return c, &c.hits
		}},
		{"slicestore-only", func(t *store.Tiered) (runner.Store, *int) {
			s := &sliceOnly{inner: t}
			return s, &s.hits
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disk, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st, hits := tc.wrap(store.NewTiered(disk, false))
			sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1, Store: st})
			if _, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{short}}); err != nil {
				t.Fatal(err)
			}

			sched2 := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1, Store: st})
			got, err := sched2.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{long}})
			if err != nil {
				t.Fatal(err)
			}
			status := sched2.Status()
			if status.SlicesRun != 2 || status.SlicesResumed != 2 {
				t.Fatalf("extension: SlicesRun=%d SlicesResumed=%d, want 2/2", status.SlicesRun, status.SlicesResumed)
			}
			if *hits != 1 {
				t.Fatalf("extension restored %d checkpoints, want 1 (the end of the stored run)", *hits)
			}
			if err := disk.Err(); err != nil {
				t.Fatalf("store writes failed: %v", err)
			}
			g, err := json.Marshal(got[0].Stats)
			if err != nil {
				t.Fatal(err)
			}
			if string(g) != string(w) {
				t.Errorf("extended stats differ from monolithic\n got: %s\nwant: %s", g, w)
			}
		})
	}
}

// TestSlicedRestoreCopiesNoBlob pins that resuming a slice from a
// store.Tiered on a store.Disk reads the checkpoint into the pooled core's
// own buffer: after an extension of an ideal-RSEP mcf job, each further
// restore of its 60k boundary allocates well under one copy of the blob.
func TestSlicedRestoreCopiesNoBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 150k instructions")
	}
	cfg := config.TableI().WithRSEP(rsep.Ideal())
	short := runner.Job{Bench: "mcf", Config: cfg, Seed: 1, Warmup: 30_000, Measure: 60_000, Slices: 2}
	long := short
	long.Measure, long.Slices = 90_000, 3
	const at = 60_000

	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(disk, false)
	for _, j := range []runner.Job{short, long} {
		sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1, Store: tiered})
		if _, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{j}}); err != nil {
			t.Fatal(err)
		}
	}

	// The first restores may grow a pooled core's buffer to the blob; the
	// ones after must not. The generator is held, not pooled, because the
	// race detector makes sync.Pool drop items at random.
	gen := workload.New(workload.MustByName(long.Bench), long.Seed)
	for range 2 {
		if !runner.RestoreAt(tiered, long, at, gen) {
			t.Fatal("stored checkpoint did not restore")
		}
	}
	const restores = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range restores {
		if !runner.RestoreAt(tiered, long, at, gen) {
			t.Fatal("stored checkpoint did not restore")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / restores; per >= 64<<10 {
		t.Errorf("a restore allocated %d bytes, want under 64 KiB", per)
	}
}
