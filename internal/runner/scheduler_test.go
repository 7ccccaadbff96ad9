package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
)

// stubJob builds distinct-key jobs cheaply: the seed is the identity.
func stubJob(seed int64) Job {
	return Job{Bench: "mcf", Config: config.TableI(), Seed: seed, Warmup: 10, Measure: 10}
}

func stubStats(seed int64) *metrics.Stats {
	return &metrics.Stats{Cycles: uint64(seed) * 100, Committed: uint64(seed) * 10}
}

// waitFor polls cond with a deadline — used to line up scheduler states that
// have no blocking API on purpose.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrossBatchSingleFlight: two concurrent batches submitting the same key
// execute it once; the waiter receives the owner's result.
func TestCrossBatchSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 4,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			execs.Add(1)
			<-release
			return stubStats(j.Seed), nil
		},
	})

	type out struct {
		res []Result
		err error
	}
	outs := make(chan out, 2)
	submit := func() {
		res, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{stubJob(7)}})
		outs <- out{res, err}
	}
	go submit()
	waitFor(t, "owner running", func() bool { return sched.Status().Running == 1 })
	go submit()
	waitFor(t, "waiter subscribed", func() bool { return sched.Status().Waiting == 1 })
	close(release)

	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res[0].Stats == nil || o.res[0].Stats.Cycles != 700 {
			t.Fatalf("batch %d got %+v", i, o.res[0].Stats)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1 (cross-batch single-flight)", n)
	}
	if w := sched.Status().Waiting; w != 0 {
		t.Fatalf("waiting gauge leaked: %d", w)
	}
}

// TestWaiterSurvivesOwnerCancellation: when the owning batch is cancelled
// mid-run, a waiter from a live batch must not inherit the cancellation —
// it reruns the job itself.
func TestWaiterSurvivesOwnerCancellation(t *testing.T) {
	var execs atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 4,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			if execs.Add(1) == 1 {
				<-ctx.Done() // the owner's attempt dies with its batch
				return nil, context.Cause(ctx)
			}
			return stubStats(j.Seed), nil
		},
	})

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerOut := make(chan error, 1)
	go func() {
		_, err := sched.RunBatch(ownerCtx, Batch{Jobs: []Job{stubJob(3)}})
		ownerOut <- err
	}()
	waitFor(t, "owner running", func() bool { return sched.Status().Running == 1 })

	waiterOut := make(chan struct {
		res []Result
		err error
	}, 1)
	go func() {
		res, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{stubJob(3)}})
		waiterOut <- struct {
			res []Result
			err error
		}{res, err}
	}()
	waitFor(t, "waiter subscribed", func() bool { return sched.Status().Waiting == 1 })

	cancelOwner()
	if err := <-ownerOut; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	w := <-waiterOut
	if w.err != nil {
		t.Fatalf("waiter err = %v, want success after reschedule", w.err)
	}
	if w.res[0].Stats == nil || w.res[0].Stats.Cycles != 300 {
		t.Fatalf("waiter stats = %+v", w.res[0].Stats)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("executed %d times, want 2 (owner aborted + waiter retry)", n)
	}
}

// TestPerBatchParallelism: a batch bound to 2 concurrent jobs never has more
// than 2 running, even on a wider scheduler.
func TestPerBatchParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 8,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return stubStats(j.Seed), nil
		},
	})
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = stubJob(int64(100 + i))
	}
	if _, err := sched.RunBatch(context.Background(), Batch{Jobs: jobs, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d, want <= 2", p)
	}
}

// TestSchedulerStatusCounters: batches/jobs/sims accumulate; store hits do
// not count as simulations.
func TestSchedulerStatusCounters(t *testing.T) {
	cache := NewCache()
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 2,
		Store:       cache,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			return stubStats(j.Seed), nil
		},
	})
	jobs := []Job{stubJob(1), stubJob(2)}
	for i := 0; i < 2; i++ {
		if _, err := sched.RunBatch(context.Background(), Batch{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
	}
	st := sched.Status()
	if st.Batches != 2 || st.Jobs != 4 {
		t.Fatalf("batches/jobs = %d/%d, want 2/4", st.Batches, st.Jobs)
	}
	if st.Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (second batch is all hits)", st.Simulations)
	}
	if st.QueueDepth != 0 || st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("idle gauges nonzero: %+v", st)
	}
}

// TestSimulationsCountFailedRuns: the Simulations counter means "executor
// runs", successful or not — a failure storm must stay visible.
func TestSimulationsCountFailedRuns(t *testing.T) {
	boom := errors.New("boom")
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 2,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			return nil, boom
		},
	})
	if _, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{stubJob(1), stubJob(2)}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the executor failure", err)
	}
	if st := sched.Status(); st.Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (failed runs count)", st.Simulations)
	}
}

// TestConcurrentBatchesShareSlots: the scheduler-wide bound holds across
// batches — two concurrent batches on a Parallelism 2 scheduler never have
// more than 2 executors running between them.
func TestConcurrentBatchesShareSlots(t *testing.T) {
	var cur, peak atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 2,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return stubStats(j.Seed), nil
		},
	})
	var wg sync.WaitGroup
	for b := range 2 {
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = stubJob(int64(100*(b+1) + i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.RunBatch(context.Background(), Batch{Jobs: jobs}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d across two batches, want <= 2", p)
	}
	if st := sched.Status(); st.Simulations != 12 {
		t.Fatalf("simulations = %d, want 12", st.Simulations)
	}
}

// TestCancelWhileWaitingForSlot: a batch cancelled while its job waits for a
// slot held by another batch returns promptly with a *PartialError, and its
// executor never runs.
func TestCancelWhileWaitingForSlot(t *testing.T) {
	block := make(chan struct{})
	var ran2 atomic.Bool
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 1,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			if j.Seed == 1 {
				<-block // hold the only slot
			} else {
				ran2.Store(true)
			}
			return stubStats(j.Seed), nil
		},
	})

	holder := make(chan error, 1)
	go func() {
		_, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{stubJob(1)}})
		holder <- err
	}()
	waitFor(t, "the slot holder to run", func() bool { return sched.Status().Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := sched.RunBatch(ctx, Batch{Jobs: []Job{stubJob(2)}})
		out <- err
	}()
	// The job owns its flight before it asks for a slot.
	waitFor(t, "the second job to wait for a slot", func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return sched.inflight[stubJob(2).Key()] != nil
	})

	cancel()
	select {
	case err := <-out:
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want a *PartialError wrapping context.Canceled", err)
		}
		if pe.Done != 0 || len(pe.Aborted) != 1 {
			t.Fatalf("partial = %+v, want 0 done and 1 aborted", pe)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch stayed blocked behind the busy slot")
	}

	close(block)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if ran2.Load() {
		t.Fatal("the cancelled batch's job executed")
	}
}

// TestCancellationLeavesNoGoroutines: an idle scheduler owns no goroutines,
// including after a waiter outlived its owner's cancellation and after a
// batch was cancelled while waiting for a slot.
func TestCancellationLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("owner cancelled", TestWaiterSurvivesOwnerCancellation)
	t.Run("cancelled waiting for a slot", TestCancelWhileWaitingForSlot)
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// overlapStore is a Store over a Cache that records how many Gets overlap.
// With wait set, each Get is held until two are in flight at once, or until
// a deadline, which it records; otherwise each Get lingers briefly so an
// overlapping one would show.
type overlapStore struct {
	*Cache
	wait bool

	mu        sync.Mutex
	cur, peak int
	timedOut  bool
	both      chan struct{} // closed once two Gets were in flight, or on timeout
	release   sync.Once
}

func newOverlapStore(wait bool) *overlapStore {
	return &overlapStore{Cache: NewCache(), wait: wait, both: make(chan struct{})}
}

func (s *overlapStore) Get(k Key) (*metrics.Stats, bool) {
	s.mu.Lock()
	s.cur++
	s.peak = max(s.peak, s.cur)
	if s.cur == 2 {
		s.release.Do(func() { close(s.both) })
	}
	s.mu.Unlock()
	if s.wait {
		select {
		case <-s.both:
		case <-time.After(2 * time.Second):
			s.mu.Lock()
			s.timedOut = true
			s.mu.Unlock()
			s.release.Do(func() { close(s.both) }) // release every later Get at once
		}
	} else {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	s.cur--
	s.mu.Unlock()
	return s.Cache.Get(k)
}

// TestStoreLookupsRunInParallel: a batch looks its groups up on up to
// min(groups, Parallelism, Batch.Parallelism) goroutines of its own, so
// two Gets are in flight at once on a Parallelism 2 scheduler, and none
// overlap when the batch is bound to one.
func TestStoreLookupsRunInParallel(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = stubJob(int64(i + 1))
	}
	fill := func(st *overlapStore) {
		for _, j := range jobs {
			st.Cache.Put(j.Key(), stubStats(j.Seed), 0)
		}
	}
	noExec := func(ctx context.Context, j Job) (*metrics.Stats, error) {
		t.Errorf("job %d executed; every job is a store hit", j.Seed)
		return stubStats(j.Seed), nil
	}
	check := func(res []Result) {
		t.Helper()
		for i, r := range res {
			if r.Stats == nil || r.Stats.Cycles != uint64(jobs[i].Seed)*100 {
				t.Fatalf("result %d = %+v", i, r.Stats)
			}
		}
	}

	par := newOverlapStore(true)
	fill(par)
	sched := NewScheduler(SchedulerOptions{Parallelism: 2, Store: par, Executor: noExec})
	res, err := sched.RunBatch(context.Background(), Batch{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	check(res)
	if par.timedOut || par.peak != 2 {
		t.Fatalf("peak overlapping Gets = %d (timed out: %v), want 2 in flight at once", par.peak, par.timedOut)
	}

	serial := newOverlapStore(false)
	fill(serial)
	sched = NewScheduler(SchedulerOptions{Parallelism: 4, Store: serial, Executor: noExec})
	res, err = sched.RunBatch(context.Background(), Batch{Jobs: jobs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	check(res)
	if serial.peak != 1 {
		t.Fatalf("peak overlapping Gets = %d with Batch.Parallelism 1, want 1", serial.peak)
	}
}

// TestHitsNeverWaitForSimulations: in a batch mixing hits and misses,
// every hit's result and progress arrive while the executor is still
// blocked on the misses, and QueueDepth counts misses only.
func TestHitsNeverWaitForSimulations(t *testing.T) {
	const par = 2
	cache := NewCache()
	var jobs []Job
	hit := map[int]bool{}
	for i := range 12 {
		j := stubJob(int64(i + 1))
		if i%3 != 0 { // jobs 1, 2, 4, 5, ... are stored; 0, 3, 6, 9 miss
			cache.Put(j.Key(), stubStats(j.Seed), 0)
			hit[i] = true
		}
		jobs = append(jobs, j)
	}
	misses := len(jobs) - len(hit)

	release := make(chan struct{})
	sched := NewScheduler(SchedulerOptions{
		Parallelism: par,
		Store:       cache,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			<-release
			return stubStats(j.Seed), nil
		},
	})
	var mu sync.Mutex
	progressed := map[int]bool{}
	out := make(chan error, 1)
	var res []Result
	go func() {
		var err error
		res, err = sched.RunBatch(context.Background(), Batch{
			Jobs: jobs,
			OnProgress: func(p Progress) {
				mu.Lock()
				defer mu.Unlock()
				if p.CacheHit != hit[p.Index] {
					t.Errorf("job %d: CacheHit = %v", p.Index, p.CacheHit)
				}
				if p.CacheHit && (p.Stats == nil || p.Stats.Cycles != uint64(jobs[p.Index].Seed)*100) {
					t.Errorf("hit %d: stats %+v", p.Index, p.Stats)
				}
				progressed[p.Index] = true
			},
		})
		out <- err
	}()

	waitFor(t, "the executor to block on the first misses", func() bool { return sched.Status().Running == par })
	mu.Lock()
	for i := range hit {
		if !progressed[i] {
			t.Errorf("hit %d has no progress while the misses simulate", i)
		}
	}
	for i := range progressed {
		if !hit[i] {
			t.Errorf("miss %d finished before the executor was released", i)
		}
	}
	mu.Unlock()
	if st := sched.Status(); st.QueueDepth != misses-par || st.QueueDepth+st.Running != misses {
		t.Errorf("QueueDepth %d, Running %d: want %d misses queued or running, hits not counted",
			st.QueueDepth, st.Running, misses)
	}

	close(release)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Stats == nil || r.Stats.Cycles != uint64(jobs[i].Seed)*100 {
			t.Fatalf("result %d = %+v", i, r.Stats)
		}
	}
	if c := cache.Counters(); c.Hits != uint64(len(hit)) || c.Misses != uint64(misses) {
		t.Fatalf("counters %+v, want %d hits and %d misses", c, len(hit), misses)
	}
}

// recordingStore is a Cache that also records the keys Put to it.
type recordingStore struct {
	*Cache
	mu   sync.Mutex
	puts []Key
}

func (s *recordingStore) Put(k Key, st *metrics.Stats, d time.Duration) {
	s.mu.Lock()
	s.puts = append(s.puts, k)
	s.mu.Unlock()
	s.Cache.Put(k, st, d)
}

// TestBatchKeysMatchJobKey: the scheduler hashes each config once per
// batch, and the keys it builds group, count and store exactly as Job.Key
// does: one shared *Config, equal configs behind different pointers (one
// differing only in its seed, which keys leave out), and different seeds,
// benchmarks and configs.
func TestBatchKeysMatchJobKey(t *testing.T) {
	shared := config.TableI()
	twin := config.TableI()
	reseeded := config.TableI()
	reseeded.Seed = 42
	other := config.TableI().WithZeroPred()
	var jobs []Job
	for _, bench := range []string{"mcf", "hmmer"} {
		for _, cfg := range []*config.Config{shared, twin, shared, reseeded, other} {
			for _, seed := range []int64{1, 2, 1} {
				jobs = append(jobs, Job{Bench: bench, Config: cfg, Seed: seed, Warmup: 10, Measure: 20})
			}
		}
	}
	var order []Key // distinct Job.Keys, first appearance first
	first := map[Key]int{}
	for i, j := range jobs {
		if _, ok := first[j.Key()]; !ok {
			first[j.Key()] = i
			order = append(order, j.Key())
		}
	}
	if len(order) != 8 { // 2 benches x {TableI, +zeropred} x seeds {1, 2}
		t.Fatalf("test batch has %d distinct keys, want 8", len(order))
	}

	st := &recordingStore{Cache: NewCache()}
	var calls atomic.Uint64
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 3,
		Store:       st,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			return &metrics.Stats{Cycles: calls.Add(1)}, nil
		},
	})
	for pass, want := range []Counters{{Misses: 8}, {Hits: 8, Misses: 8}} {
		res, err := sched.RunBatch(context.Background(), Batch{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		// Jobs share a result exactly when their Job.Keys are equal.
		for i, j := range jobs {
			if got, lead := res[i].Stats.Cycles, res[first[j.Key()]].Stats.Cycles; got != lead {
				t.Errorf("pass %d: job %d got run %d, its key's first job run %d", pass, i, got, lead)
			}
		}
		seen := map[uint64]Key{}
		for _, k := range order {
			c := res[first[k]].Stats.Cycles
			if prev, dup := seen[c]; dup {
				t.Errorf("pass %d: keys %+v and %+v share run %d", pass, prev, k, c)
			}
			seen[c] = k
		}
		if c := sched.Counters(); c != want {
			t.Errorf("pass %d: counters %+v, want %+v", pass, c, want)
		}
	}
	if n := calls.Load(); n != 8 {
		t.Errorf("executed %d times, want 8", n)
	}
	put := map[Key]int{}
	for _, k := range st.puts {
		put[k]++
	}
	for _, k := range order {
		if put[k] != 1 {
			t.Errorf("key %+v stored %d times, want once", k, put[k])
		}
	}
	if len(st.puts) != len(order) {
		t.Errorf("stored %d keys, want %d: %+v", len(st.puts), len(order), st.puts)
	}
}
