package runner_test

import (
	"context"
	"encoding/json"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// ckptCounter counts the checkpoints a store serves.
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

// TestSlicedExtensionOverDisk is TestSlicedExtension over the store the
// commands mount: a read-write store.Tiered, which keeps checkpoints on disk
// only. Every boundary is encoded into the worker's one reused buffer, so
// this also checks that the bytes on disk are the ones each boundary wrote.
func TestSlicedExtensionOverDisk(t *testing.T) {
	cfg := config.TableI()
	short := runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 10_000, Slices: 2}
	long := runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000, Slices: 4}

	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := &ckptCounter{Tiered: store.NewTiered(disk, false)}
	sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1, Store: tiered})
	if _, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{short}}); err != nil {
		t.Fatal(err)
	}

	sched2 := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 1, Store: tiered})
	got, err := sched2.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{long}})
	if err != nil {
		t.Fatal(err)
	}
	st := sched2.Status()
	if st.SlicesRun != 2 || st.SlicesResumed != 2 {
		t.Fatalf("extension: SlicesRun=%d SlicesResumed=%d, want 2/2", st.SlicesRun, st.SlicesResumed)
	}
	if tiered.hits != 1 {
		t.Fatalf("extension restored %d checkpoints, want 1 (the end of the stored run)", tiered.hits)
	}
	if err := disk.Err(); err != nil {
		t.Fatalf("store writes failed: %v", err)
	}

	mono, err := runner.Simulate(context.Background(), runner.Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got[0].Stats)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(mono)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("extended stats differ from monolithic\n got: %s\nwant: %s", g, w)
	}
}
