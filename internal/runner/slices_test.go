package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"rsepsim/internal/ckpt"
	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

func statsBytes(t *testing.T, st *metrics.Stats) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return b
}

// TestSlicedMatchesMonolithic is the acceptance bar for sliced execution: a
// K-slice run's merged Stats must be byte-identical to the monolithic run for
// the golden configurations, including the full rsep+vp stack.
func TestSlicedMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	cases := []struct {
		name string
		cfg  *config.Config
	}{
		{"baseline", config.TableI()},
		{"rsep-realistic", config.TableI().WithRSEP(rsep.Realistic())},
		{"rsep-vp", config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := Job{Bench: "mcf", Config: tc.cfg, Seed: 7, Warmup: 5_000, Measure: 20_000}
			mono, err := Simulate(context.Background(), job)
			if err != nil {
				t.Fatalf("monolithic: %v", err)
			}
			for _, slices := range []uint32{2, 5} {
				sj := job
				sj.Slices = slices
				sched := NewScheduler(SchedulerOptions{Parallelism: 1, Store: NewCache()})
				res, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{sj}})
				if err != nil {
					t.Fatalf("slices=%d: %v", slices, err)
				}
				if got, want := statsBytes(t, res[0].Stats), statsBytes(t, mono); string(got) != string(want) {
					t.Errorf("slices=%d: merged stats differ from monolithic\n got: %s\nwant: %s", slices, got, want)
				}
			}
		})
	}
}

// TestSlicedWithoutStore: a scheduler with no store still decomposes a sliced
// job (one live core runs through every slice), merges it to the monolithic
// bytes, and counts no store traffic.
func TestSlicedWithoutStore(t *testing.T) {
	job := Job{Bench: "mcf", Config: config.TableI(), Seed: 7, Warmup: 5_000, Measure: 20_000}
	mono, err := Simulate(context.Background(), job)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	job.Slices = 2
	sched := NewScheduler(SchedulerOptions{Parallelism: 1})
	res, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{job}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statsBytes(t, res[0].Stats), statsBytes(t, mono); string(got) != string(want) {
		t.Errorf("merged stats differ from monolithic\n got: %s\nwant: %s", got, want)
	}
	if st := sched.Status(); st.SlicesRun != 2 || st.SlicesResumed != 0 {
		t.Errorf("SlicesRun=%d SlicesResumed=%d, want 2/0", st.SlicesRun, st.SlicesResumed)
	}
	if c := sched.Counters(); c != (Counters{}) {
		t.Errorf("Counters() = %+v without a store, want zero", c)
	}
}

// TestSlicedResumesFromStore: a second submission of the same sliced job
// against the same store answers every slice from the stored deltas without
// simulating again — the mechanism behind restart recovery.
func TestSlicedResumesFromStore(t *testing.T) {
	cache := NewCache()
	job := Job{Bench: "hmmer", Config: config.TableI(), Seed: 3, Warmup: 2_000, Measure: 10_000, Slices: 4}

	sched := NewScheduler(SchedulerOptions{Parallelism: 1, Store: cache})
	first, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{job}})
	if err != nil {
		t.Fatal(err)
	}
	st := sched.Status()
	if st.SlicesRun != 4 || st.SlicesResumed != 0 {
		t.Fatalf("cold run: SlicesRun=%d SlicesResumed=%d, want 4/0", st.SlicesRun, st.SlicesResumed)
	}

	// Same store, fresh scheduler, but drop the whole-job envelope so the
	// store cannot answer the whole job and the sliced path must resolve it.
	cache2 := NewCache()
	for k, v := range cache.slices {
		cache2.slices[k] = v
	}
	for k, v := range cache.ckpts {
		cache2.ckpts[k] = v
	}
	var progress []SliceProgress
	sched2 := NewScheduler(SchedulerOptions{Parallelism: 1, Store: cache2})
	second, err := sched2.RunBatch(context.Background(), Batch{
		Jobs:    []Job{job},
		OnSlice: func(p SliceProgress) { progress = append(progress, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st2 := sched2.Status()
	if st2.SlicesRun != 0 || st2.SlicesResumed != 4 {
		t.Fatalf("warm run: SlicesRun=%d SlicesResumed=%d, want 0/4", st2.SlicesRun, st2.SlicesResumed)
	}
	if len(progress) != 4 {
		t.Fatalf("OnSlice fired %d times, want 4", len(progress))
	}
	for i, p := range progress {
		if p.Slice != i || p.Slices != 4 || !p.Resumed || p.Index != 0 {
			t.Errorf("progress[%d] = %+v, want {Index:0 Slice:%d Slices:4 Resumed:true}", i, p, i)
		}
	}
	if got, want := statsBytes(t, second[0].Stats), statsBytes(t, first[0].Stats); string(got) != string(want) {
		t.Errorf("resumed stats differ from cold run\n got: %s\nwant: %s", got, want)
	}
}

// TestSlicedPartialResume: with only a prefix of the slices stored, the
// scheduler resumes from the last checkpoint and simulates just the suffix —
// and a corrupt checkpoint degrades to the fast-forward fallback without
// changing the result.
func TestSlicedPartialResume(t *testing.T) {
	job := Job{Bench: "mcf", Config: config.TableI(), Seed: 11, Warmup: 2_000, Measure: 12_000, Slices: 3}

	cold := NewCache()
	sched := NewScheduler(SchedulerOptions{Parallelism: 1, Store: cold})
	want, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{job}})
	if err != nil {
		t.Fatal(err)
	}

	// Keep the first two slice deltas and their checkpoints; the whole-job
	// envelope and the last slice are gone (a run killed two-thirds through).
	chunk := job.Measure / uint64(job.Slices)
	partial := NewCache()
	for k, v := range cold.slices {
		if k.End <= 2*chunk {
			partial.slices[k] = v
		}
	}
	for k, v := range cold.ckpts {
		if k.At <= 2*chunk {
			partial.ckpts[k] = v
		}
	}

	sched2 := NewScheduler(SchedulerOptions{Parallelism: 1, Store: partial})
	got, err := sched2.RunBatch(context.Background(), Batch{Jobs: []Job{job}})
	if err != nil {
		t.Fatal(err)
	}
	st := sched2.Status()
	if st.SlicesRun != 1 || st.SlicesResumed != 2 {
		t.Fatalf("partial resume: SlicesRun=%d SlicesResumed=%d, want 1/2", st.SlicesRun, st.SlicesResumed)
	}
	if g, w := statsBytes(t, got[0].Stats), statsBytes(t, want[0].Stats); string(g) != string(w) {
		t.Errorf("partial resume stats differ\n got: %s\nwant: %s", g, w)
	}

	// Damage the checkpoint the resume restores from: the restore must be
	// refused and the fallback must still produce identical stats. A
	// checkpoint from format version 3 (raw POD sections) is refused the same
	// way, from its header.
	cfg := job.Config.Clone()
	cfg.Seed = job.Seed
	damages := []struct {
		name    string
		damage  func(blob []byte)
		wantErr error // nil: any error
	}{
		{"flipped-byte", func(b []byte) { b[len(b)/2] ^= 0x01 }, nil},
		{"version-3", func(b []byte) { binary.LittleEndian.PutUint32(b[len("RSEPCKPT"):], 3) }, ckpt.ErrVersion},
	}
	for _, d := range damages {
		corrupt := NewCache()
		for k, v := range cold.slices {
			if k.End <= 2*chunk {
				corrupt.slices[k] = v
			}
		}
		for k, v := range cold.ckpts {
			if k.At > 2*chunk {
				continue
			}
			blob := append([]byte(nil), v...)
			d.damage(blob)
			src := workload.New(workload.MustByName(job.Bench), job.Seed)
			_, err := pipeline.NewFromCheckpoint(cfg, src, bytes.NewReader(blob))
			if err == nil || d.wantErr != nil && !errors.Is(err, d.wantErr) {
				t.Fatalf("%s: restore error %v, want %v", d.name, err, d.wantErr)
			}
			corrupt.ckpts[k] = blob
		}
		sched3 := NewScheduler(SchedulerOptions{Parallelism: 1, Store: corrupt})
		got3, err := sched3.RunBatch(context.Background(), Batch{Jobs: []Job{job}})
		if err != nil {
			t.Fatal(err)
		}
		if st := sched3.Status(); st.SlicesRun != 1 || st.SlicesResumed != 2 {
			t.Fatalf("%s: SlicesRun=%d SlicesResumed=%d, want 1/2", d.name, st.SlicesRun, st.SlicesResumed)
		}
		if g, w := statsBytes(t, got3[0].Stats), statsBytes(t, want[0].Stats); string(g) != string(w) {
			t.Errorf("%s: fallback stats differ\n got: %s\nwant: %s", d.name, g, w)
		}
	}
}

// TestSlicedExtension: extending a finished 10k-instruction run to 20k with
// an aligned slice grid reuses every stored prefix slice — only the new
// suffix simulates — and matches the monolithic 20k run exactly.
func TestSlicedExtension(t *testing.T) {
	cfg := config.TableI()
	short := Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 10_000, Slices: 2}
	long := Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000, Slices: 4}

	cache := NewCache()
	sched := NewScheduler(SchedulerOptions{Parallelism: 1, Store: cache})
	if _, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{short}}); err != nil {
		t.Fatal(err)
	}

	sched2 := NewScheduler(SchedulerOptions{Parallelism: 1, Store: cache})
	got, err := sched2.RunBatch(context.Background(), Batch{Jobs: []Job{long}})
	if err != nil {
		t.Fatal(err)
	}
	st := sched2.Status()
	if st.SlicesRun != 2 || st.SlicesResumed != 2 {
		t.Fatalf("extension: SlicesRun=%d SlicesResumed=%d, want 2/2", st.SlicesRun, st.SlicesResumed)
	}

	mono, err := Simulate(context.Background(), Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := statsBytes(t, got[0].Stats), statsBytes(t, mono); string(g) != string(w) {
		t.Errorf("extended stats differ from monolithic\n got: %s\nwant: %s", g, w)
	}
}

// ckptRecorder is a Cache that records the boundary of every checkpoint put.
type ckptRecorder struct {
	*Cache
	puts []uint64
}

func (r *ckptRecorder) PutCheckpoint(k CheckpointKey, blob []byte) {
	r.puts = append(r.puts, k.At)
	r.Cache.PutCheckpoint(k, blob)
}

// TestSlicedHealsRefusedCheckpoint: when Restore refuses the checkpoint at
// an extension's first new boundary (here one with an older format version),
// the fast-forward that replaces it stores a good checkpoint there, so the
// next run from that boundary restores instead of fast-forwarding again.
func TestSlicedHealsRefusedCheckpoint(t *testing.T) {
	cfg := config.TableI()
	short := Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 10_000, Slices: 2}
	long := Job{Bench: "mcf", Config: cfg, Seed: 5, Warmup: 2_000, Measure: 20_000, Slices: 4}
	const boundary = 10_000

	store := &ckptRecorder{Cache: NewCache()}
	if _, err := NewScheduler(SchedulerOptions{Parallelism: 1, Store: store}).RunBatch(
		context.Background(), Batch{Jobs: []Job{short}}); err != nil {
		t.Fatal(err)
	}
	var key CheckpointKey
	for k := range store.ckpts {
		if k.At == boundary {
			key = k
		}
	}
	good := append([]byte(nil), store.ckpts[key]...)
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[len("RSEPCKPT"):], ckpt.FormatVersion-1)
	store.ckpts[key] = bad

	mono, err := Simulate(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	extend := func(step string) []uint64 {
		store.puts = nil
		sched := NewScheduler(SchedulerOptions{Parallelism: 1, Store: store})
		got, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{long}})
		if err != nil {
			t.Fatal(err)
		}
		if st := sched.Status(); st.SlicesRun != 2 || st.SlicesResumed != 2 {
			t.Fatalf("%s: SlicesRun=%d SlicesResumed=%d, want 2/2", step, st.SlicesRun, st.SlicesResumed)
		}
		if g, w := statsBytes(t, got[0].Stats), statsBytes(t, mono); string(g) != string(w) {
			t.Errorf("%s: stats differ from monolithic\n got: %s\nwant: %s", step, g, w)
		}
		return store.puts
	}

	if puts := extend("refused"); len(puts) != 3 || puts[0] != boundary {
		t.Fatalf("refused restore: checkpoints put at %v, want the healed %d first", puts, boundary)
	}
	if !bytes.Equal(store.ckpts[key], good) {
		t.Fatal("healed checkpoint differs from the one the short run wrote")
	}

	// Forget the extension's result, slices and later checkpoints, so the
	// next run must position a core at the healed boundary again.
	clear(store.entries)
	for k := range store.slices {
		if k.End > boundary {
			delete(store.slices, k)
		}
	}
	for k := range store.ckpts {
		if k.At > boundary {
			delete(store.ckpts, k)
		}
	}
	if puts := extend("healed"); len(puts) != 2 || puts[0] == boundary {
		t.Fatalf("healed restore: checkpoints put at %v, want only the two new boundaries", puts)
	}
}

// TestSliceTargets pins the grid arithmetic: cumulative boundaries, remainder
// folded into the last slice.
func TestSliceTargets(t *testing.T) {
	got := sliceTargets(10, 3)
	want := []uint64{3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sliceTargets(10,3) = %v, want %v", got, want)
		}
	}
}

// TestStatsSubMergeInverse: Sub then Merge telescopes back to the original.
func TestStatsSubMergeInverse(t *testing.T) {
	a := metrics.Stats{Cycles: 100, Committed: 80, DRAMReads: 4, DRAMLatencySum: 800, AvgDRAMLatency: 200}
	b := metrics.Stats{Cycles: 250, Committed: 200, DRAMReads: 10, DRAMLatencySum: 2600, AvgDRAMLatency: 260}
	delta := b.Sub(&a)
	var merged metrics.Stats
	merged.Merge(&a)
	merged.Merge(&delta)
	if g, w := statsBytes(t, &merged), statsBytes(t, &b); string(g) != string(w) {
		t.Errorf("Sub/Merge not inverse\n got: %s\nwant: %s", g, w)
	}
}
