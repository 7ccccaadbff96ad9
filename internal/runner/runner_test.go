package runner

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/rsep"
)

func testJobs() []Job {
	base := config.TableI()
	var jobs []Job
	for _, bench := range []string{"mcf", "hmmer", "libquantum"} {
		for _, cfg := range []*config.Config{base, base.WithRSEP(rsep.Ideal())} {
			for seed := int64(1); seed <= 2; seed++ {
				jobs = append(jobs, Job{
					Bench: bench, Config: cfg, Seed: seed,
					Warmup: 10_000, Measure: 20_000,
				})
			}
		}
	}
	return jobs
}

func encode(t *testing.T, res []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if err := r.Stats.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDeterministicAcrossParallelism: the same jobs must yield byte-identical
// results at parallelism 1, 4 and NumCPU.
func TestDeterministicAcrossParallelism(t *testing.T) {
	jobs := testJobs()
	var golden []byte
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		sched := NewScheduler(SchedulerOptions{Parallelism: par})
		res, err := sched.RunBatch(t.Context(), Batch{Jobs: jobs})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		enc := encode(t, res)
		if golden == nil {
			golden = enc
		} else if !bytes.Equal(golden, enc) {
			t.Fatalf("par=%d produced different results than par=1", par)
		}
	}
}

func TestKeyDistinguishesConfigsNotSeedAliases(t *testing.T) {
	base := config.TableI()
	j := Job{Bench: "mcf", Config: base, Seed: 3, Warmup: 1, Measure: 2}

	same := j
	same.Config = base.Clone()
	if j.Key() != same.Key() {
		t.Fatal("cloned config changed the key")
	}

	// The config's own Seed field must not leak into the key: the job seed
	// governs the simulation.
	reseeded := j
	reseeded.Config = base.Clone()
	reseeded.Config.Seed = 999
	if j.Key() != reseeded.Key() {
		t.Fatal("config.Seed leaked into the job key")
	}

	diff := j
	diff.Config = base.WithZeroPred()
	if j.Key() == diff.Key() {
		t.Fatal("different configs share a key")
	}
	otherSeed := j
	otherSeed.Seed = 4
	if j.Key() == otherSeed.Key() {
		t.Fatal("different seeds share a key")
	}
}

// TestSingleFlight: identical jobs in one batch are simulated once.
func TestSingleFlight(t *testing.T) {
	cache := NewCache()
	sched := NewScheduler(SchedulerOptions{Parallelism: 4, Store: cache})
	j := Job{Bench: "gamess", Config: config.TableI(), Seed: 1, Warmup: 5_000, Measure: 10_000}
	res, err := sched.RunBatch(t.Context(), Batch{Jobs: []Job{j, j, j, j}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Stats.IPC() != res[0].Stats.IPC() {
			t.Fatal("identical jobs diverged")
		}
	}
	if c := cache.Counters(); c.Misses != 1 {
		t.Fatalf("simulated %d times, want 1 (single-flight)", c.Misses)
	}
}

// TestCacheHits: a second batch of the same jobs is served entirely from the
// cache, and cached results equal simulated ones.
func TestCacheHits(t *testing.T) {
	jobs := testJobs()
	cache := NewCache()
	sched := NewScheduler(SchedulerOptions{Parallelism: 4, Store: cache})

	first, err := sched.RunBatch(t.Context(), Batch{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Counters()
	if cold.Hits != 0 || cold.Misses != uint64(len(jobs)) {
		t.Fatalf("cold run: %d hits / %d misses, want 0/%d", cold.Hits, cold.Misses, len(jobs))
	}

	var hitCount int
	second, err := sched.RunBatch(t.Context(), Batch{Jobs: jobs, OnProgress: func(p Progress) {
		if p.CacheHit {
			hitCount++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hitCount != len(jobs) {
		t.Fatalf("warm run: %d cache hits, want %d", hitCount, len(jobs))
	}
	if !bytes.Equal(encode(t, first), encode(t, second)) {
		t.Fatal("cached results differ from simulated ones")
	}
}

// TestCancelledContextReturnsPromptly: cancelling mid-run aborts long
// simulations quickly and reports a PartialError.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	// One job that would take far longer than the test timeout.
	jobs := []Job{{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 0, Measure: 500_000_000}}
	sched := NewScheduler(SchedulerOptions{Parallelism: 1})

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sched.RunBatch(ctx, Batch{Jobs: jobs})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res[0].Err == nil {
		t.Fatal("aborted job carries no error")
	}
}

// TestProgressObservesEveryJob: Done climbs monotonically to Total.
func TestProgressObservesEveryJob(t *testing.T) {
	jobs := testJobs()[:6]
	var seen []int
	sched := NewScheduler(SchedulerOptions{Parallelism: 3})
	b := Batch{Jobs: jobs, OnProgress: func(p Progress) {
		if p.Total != len(jobs) {
			t.Errorf("Total = %d, want %d", p.Total, len(jobs))
		}
		seen = append(seen, p.Done)
	}}
	if _, err := sched.RunBatch(t.Context(), b); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("callback fired %d times, want %d", len(seen), len(jobs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("Done sequence %v not monotonic", seen)
		}
	}
}

// TestUnknownBenchmark: a bad job fails that job and surfaces the first
// error while the rest still complete.
func TestUnknownBenchmark(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Parallelism: 2})
	jobs := []Job{
		{Bench: "nope", Config: config.TableI(), Seed: 1, Warmup: 100, Measure: 100},
		{Bench: "mcf", Config: config.TableI(), Seed: 1, Warmup: 1_000, Measure: 2_000},
	}
	res, err := sched.RunBatch(t.Context(), Batch{Jobs: jobs})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if res[0].Err == nil || res[0].Stats != nil {
		t.Fatal("failing job not marked")
	}
	if res[1].Err != nil || res[1].Stats == nil {
		t.Fatal("healthy job did not complete")
	}
}

// TestSimulateMatchesPool: the one-off Simulate helper and the scheduler
// agree.
func TestSimulateMatchesPool(t *testing.T) {
	j := Job{Bench: "hmmer", Config: config.TableI(), Seed: 7, Warmup: 5_000, Measure: 10_000}
	direct, err := Simulate(t.Context(), j)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewScheduler(SchedulerOptions{Parallelism: 2}).RunBatch(t.Context(), Batch{Jobs: []Job{j}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.IPC() != res[0].Stats.IPC() || direct.Cycles != res[0].Stats.Cycles {
		t.Fatal("Simulate and Scheduler.RunBatch disagree")
	}
}

// TestCacheSnapshotIsolation: mutating a returned entry must not corrupt the
// cache.
func TestCacheSnapshotIsolation(t *testing.T) {
	c := NewCache()
	k := Key{Bench: "x"}
	c.Put(k, &metrics.Stats{Cycles: 10}, 0)
	got, ok := c.Get(k)
	if !ok || got.Cycles != 10 {
		t.Fatal("cache miss after put")
	}
	got.Cycles = 99
	again, _ := c.Get(k)
	if again.Cycles != 10 {
		t.Fatal("caller mutation leaked into the cache")
	}
}
