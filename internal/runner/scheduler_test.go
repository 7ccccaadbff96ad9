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
