package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"rsepsim/internal/metrics"
)

// TestPoolCancellationMidBatch drives a scheduler through a deterministic
// cancellation: with one worker, job 1 completes, job 2 blocks until the
// context dies, job 3 is never started. The completed result must be
// returned AND flushed to the store; the other two must carry the
// cancellation cause; the PartialError must split finished from aborted
// keys.
func TestPoolCancellationMidBatch(t *testing.T) {
	cause := errors.New("operator pulled the plug")
	ctx, cancel := context.WithCancelCause(t.Context())
	cache := NewCache()
	var ran3 atomic.Bool
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 1,
		Store:       cache,
		Executor: func(c context.Context, j Job) (*metrics.Stats, error) {
			switch j.Seed {
			case 1:
				return &metrics.Stats{Cycles: 100, Committed: 10}, nil
			case 2:
				cancel(cause) // job 1 is done and flushed; die mid-batch
				<-c.Done()
				return nil, context.Cause(c)
			default:
				ran3.Store(true)
				return &metrics.Stats{Cycles: 1}, nil
			}
		},
	})

	jobs := []Job{stubJob(1), stubJob(2), stubJob(3)}
	res, err := sched.RunBatch(ctx, Batch{Jobs: jobs})

	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if pe.Done != 1 || pe.Total != 3 {
		t.Fatalf("Done/Total = %d/%d, want 1/3", pe.Done, pe.Total)
	}
	if ran3.Load() {
		t.Fatal("job 3 was started after cancellation")
	}

	// Jobs finished before the cancel are returned...
	if res[0].Stats == nil || res[0].Err != nil {
		t.Fatalf("finished job lost its result: %+v", res[0])
	}
	// ...and were flushed to the store as they completed.
	if _, ok := cache.Get(jobs[0].Key()); !ok {
		t.Fatal("finished result was not flushed to the store")
	}
	// Jobs at or after the cancel carry the cause, not stats.
	for i := 1; i < 3; i++ {
		if res[i].Stats != nil {
			t.Fatalf("job %d has stats after cancellation", i)
		}
		if !errors.Is(res[i].Err, cause) {
			t.Fatalf("job %d err = %v, want the cancellation cause", i, res[i].Err)
		}
	}

	// The error lists finished vs. aborted keys in submission order.
	if len(pe.Finished) != 1 || pe.Finished[0] != jobs[0].Key() {
		t.Fatalf("Finished = %v, want [job1]", pe.Finished)
	}
	if len(pe.Aborted) != 2 || pe.Aborted[0] != jobs[1].Key() || pe.Aborted[1] != jobs[2].Key() {
		t.Fatalf("Aborted = %v, want [job2 job3]", pe.Aborted)
	}
}

// TestPartialErrorUnwrapChain pins the unwrap behavior everything above
// relies on: errors.As finds the *PartialError anywhere in a wrap chain, and
// errors.Is reaches through it to the cancellation cause — including custom
// causes installed via context.WithCancelCause.
func TestPartialErrorUnwrapChain(t *testing.T) {
	cause := errors.New("shard evacuated")
	pe := &PartialError{Done: 2, Total: 5, Err: cause}

	if !errors.Is(pe, cause) {
		t.Fatal("PartialError does not unwrap to its cause")
	}
	wrapped := newWrapped("figure 6: ", pe)
	var got *PartialError
	if !errors.As(wrapped, &got) || got != pe {
		t.Fatal("errors.As failed through an outer wrap")
	}
	if !errors.Is(wrapped, cause) {
		t.Fatal("errors.Is failed through two layers")
	}
	if want := "cancelled after 2/5 jobs"; !strings.Contains(pe.Error(), want) {
		t.Fatalf("Error() = %q, want it to contain %q", pe.Error(), want)
	}

	// The real thing: a cancelled run's error chain reaches the ctx cause.
	ctx, cancel := context.WithCancelCause(t.Context())
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 1,
		Executor: func(c context.Context, j Job) (*metrics.Stats, error) {
			cancel(cause)
			<-c.Done()
			return nil, context.Cause(c)
		},
	})
	_, err := sched.RunBatch(ctx, Batch{Jobs: []Job{stubJob(1), stubJob(2)}})
	if !errors.As(err, &got) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v does not unwrap to the WithCancelCause cause", err)
	}

	// Plain context.Canceled keeps working too.
	ctx2, cancel2 := context.WithCancel(t.Context())
	sched2 := NewScheduler(SchedulerOptions{
		Parallelism: 1,
		Executor: func(c context.Context, j Job) (*metrics.Stats, error) {
			cancel2()
			<-c.Done()
			return nil, context.Cause(c)
		},
	})
	_, err = sched2.RunBatch(ctx2, Batch{Jobs: []Job{stubJob(1), stubJob(2)}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestJobFailureTyped: a batch that completes with a failing job reports a
// *JobFailure carrying the index, bench and cause — the typed error that lets
// a caller tell a deterministic job failure from a lost batch.
func TestJobFailureTyped(t *testing.T) {
	boom := errors.New("boom")
	sched := NewScheduler(SchedulerOptions{
		Parallelism: 2,
		Executor: func(ctx context.Context, j Job) (*metrics.Stats, error) {
			if j.Seed == 2 {
				return nil, boom
			}
			return &metrics.Stats{Cycles: uint64(j.Seed)}, nil
		},
	})
	res, err := sched.RunBatch(context.Background(), Batch{Jobs: []Job{stubJob(1), stubJob(2), stubJob(3)}})
	var jf *JobFailure
	if !errors.As(err, &jf) {
		t.Fatalf("want *JobFailure, got %T: %v", err, err)
	}
	if jf.Index != 1 || !errors.Is(jf, boom) {
		t.Fatalf("failure misattributed: index %d, err %v", jf.Index, jf.Err)
	}
	if res[0].Stats == nil || res[2].Stats == nil {
		t.Fatal("healthy jobs did not complete alongside the failure")
	}
}

// newWrapped adds one fmt.Errorf-style wrap layer.
func newWrapped(prefix string, err error) error {
	return &wrapErr{prefix: prefix, err: err}
}

type wrapErr struct {
	prefix string
	err    error
}

func (w *wrapErr) Error() string { return w.prefix + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }
