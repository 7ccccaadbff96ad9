package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
)

// Batch is the unit of admission: a list of jobs scheduled together, with
// batch-level policy. It is the in-memory form of BatchSpec plus the bits
// that cannot cross a wire (the progress callback).
type Batch struct {
	Jobs []Job
	// Parallelism bounds how many of this batch's jobs run, and how many of
	// its store lookups run, concurrently; <= 0 means no per-batch bound
	// (the scheduler's global bound applies).
	Parallelism int
	// OnProgress, when non-nil, observes every job completion of this batch.
	// Calls are serialized per batch; the callback must not submit to the
	// same scheduler.
	OnProgress func(Progress)
	// OnSlice, when non-nil, observes every slice resolution of this batch's
	// sliced jobs (jobs with Slices > 1 running against the in-process
	// executor). Same serialization contract as OnProgress.
	OnSlice func(SliceProgress)
}

// BatchRunner runs a batch and returns one Result per job, in submission
// order. It is the seam the figure runners program against: the in-process
// Scheduler and the HTTP client in internal/serve both satisfy it, so a caller
// cannot tell which side of the wire it is on.
type BatchRunner interface {
	RunBatch(ctx context.Context, b Batch) ([]Result, error)
}

var _ BatchRunner = (*Scheduler)(nil)

// Progress describes one completed job. Callbacks observe every job exactly
// once, including cache hits and failures, with Done increasing monotonically
// to Total.
type Progress struct {
	Done     int
	Total    int
	Index    int // index of this job in the submitted batch
	CacheHit bool
	Job      Job
	// Stats is the job's result (nil when Err is set) — the same snapshot
	// the Result will carry. Callbacks must treat it as read-only.
	Stats *metrics.Stats
	Err   error
}

// PartialError reports a run that was cancelled before every job finished.
// The results returned alongside it hold the jobs that did complete (their
// results were flushed to the store as they were produced); jobs that never
// ran (or were aborted mid-simulation) carry the cancellation error instead
// of stats.
type PartialError struct {
	Done  int // jobs that completed successfully
	Total int
	// Finished lists the unique keys that resolved to stats — work that is
	// safe to rely on (and present in the store, if one is mounted).
	// Aborted lists the unique keys that did not: cancelled mid-run, never
	// started, or failed. Both are in first-submission order.
	Finished []Key
	Aborted  []Key
	Err      error // the cancellation cause
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("runner: cancelled after %d/%d jobs: %v", e.Done, e.Total, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// JobFailure is the batch-level error of a run that completed but had at
// least one job fail: the first failure in submission order, typed so a
// caller can tell "this job deterministically fails" (not worth resubmitting)
// from "the transport ate the batch". The scheduler and the HTTP client both
// return it.
type JobFailure struct {
	Index int    // index of the failing job in the submitted batch
	Bench string // the job's benchmark, for log lines
	Err   error  // the job's own error
}

func (e *JobFailure) Error() string {
	return fmt.Sprintf("runner: job %d (%s): %v", e.Index, e.Bench, e.Err)
}

func (e *JobFailure) Unwrap() error { return e.Err }

// SchedulerOptions configures a Scheduler.
type SchedulerOptions struct {
	// Parallelism bounds concurrently executing jobs across all batches,
	// and each batch's concurrent store lookups; <= 0 means NumCPU.
	Parallelism int
	// Store, when non-nil, is consulted before every execution and written
	// after every successful one. Sharing one Store across schedulers (or
	// processes, with a persistent internal/store) turns repeated jobs into
	// lookups. Nil means every job simulates.
	Store Store
	// Executor runs one job; nil means Simulate (the in-process pipeline).
	Executor Executor
}

// Scheduler is the admission and dispatch layer: long-lived, shared by any
// number of concurrent batch submissions. It coalesces equal-key jobs within
// a batch, deduplicates them across in-flight batches (cross-request
// single-flight), and resolves store hits without touching the executor.
// Each RunBatch call first looks its groups up in the store, then works off
// its misses in submission order, both on goroutines it owns; a job executes
// only while it holds one of the scheduler's Parallelism slots, so an idle
// scheduler owns no goroutines.
type Scheduler struct {
	exec  Executor
	store Store // nil: never hits, counts nothing
	// slicedOK records whether the executor is the in-process pipeline:
	// sliced decomposition drives pipeline.Core checkpoints directly, so a
	// custom Executor (a test stub, a remote hop) falls back to monolithic
	// execution.
	slicedOK bool
	// slots is the global execution bound: a job runs only while it holds
	// one of its Parallelism tokens.
	slots chan struct{}

	mu       sync.Mutex
	inflight map[Key]*flight

	queued, running, waiting atomic.Int64

	batches       atomic.Uint64
	jobs          atomic.Uint64
	sims          atomic.Uint64
	slicesRun     atomic.Uint64
	slicesResumed atomic.Uint64
	cyclesSkipped atomic.Uint64
}

// NewScheduler returns an idle scheduler.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	exec := opt.Executor
	if exec == nil {
		exec = Simulate
	}
	return &Scheduler{
		exec:     exec,
		store:    opt.Store,
		slicedOK: opt.Executor == nil,
		slots:    make(chan struct{}, par),
		inflight: make(map[Key]*flight),
	}
}

// Counters reports the store's lookup statistics (zero without a store).
func (s *Scheduler) Counters() Counters {
	if s.store == nil {
		return Counters{}
	}
	return s.store.Counters()
}

// Status is a point-in-time snapshot of the scheduler, for /metrics.
type Status struct {
	// QueueDepth is the number of admitted store misses no worker has
	// picked up yet.
	QueueDepth int
	// Running is the number of jobs currently executing.
	Running int
	// Waiting is the number of job groups subscribed to another batch's
	// in-flight execution (cross-request single-flight dedup).
	Waiting int
	// Batches and Jobs count admissions since the scheduler was created.
	Batches uint64
	Jobs    uint64
	// Simulations counts executor runs — work the store did not absorb.
	Simulations uint64
	// SlicesRun counts slices that actually simulated; SlicesResumed counts
	// slices answered from stored per-slice envelopes (work a restart or an
	// aligned earlier run already paid for).
	SlicesRun     uint64
	SlicesResumed uint64
	// CyclesSkipped counts simulated cycles the cores fast-forwarded over
	// (quiescent-stretch skipping, pipeline fast-forward) across successful
	// runs — the production observability knob for how much wall clock the
	// optimisation is saving.
	CyclesSkipped uint64
}

// Status reports scheduler-level counters and gauges.
func (s *Scheduler) Status() Status {
	return Status{
		QueueDepth:    int(s.queued.Load()),
		Running:       int(s.running.Load()),
		Waiting:       int(s.waiting.Load()),
		Batches:       s.batches.Load(),
		Jobs:          s.jobs.Load(),
		Simulations:   s.sims.Load(),
		SlicesRun:     s.slicesRun.Load(),
		SlicesResumed: s.slicesResumed.Load(),
		CyclesSkipped: s.cyclesSkipped.Load(),
	}
}

// group is one single-flight unit within a batch: every submitted job index
// that shares a key, resolved once.
type group struct {
	key     Key
	indices []int
}

// flight is one in-flight execution of a key, shared across batches: its
// owner executes, and groups of other batches wait on done for the outcome.
type flight struct {
	done chan struct{}
	// Set by the owner before done closes.
	st  *metrics.Stats
	err error
	// abandoned means err is the owner batch's cancellation, not the job's
	// outcome: a waiter whose own batch is live retries instead.
	abandoned bool
}

// batchRun is the per-submission state: results and progress.
type batchRun struct {
	ctx     context.Context
	jobs    []Job
	results []Result
	onProg  func(Progress)
	onSlice func(SliceProgress)
	groups  []*group

	mu   sync.Mutex // serializes result delivery and the callbacks
	done int
}

// RunBatch admits b, blocks until every job resolves, and returns one Result
// per job in submission order — results[i] always corresponds to b.Jobs[i],
// whatever the parallelism, so a sweep's output is deterministic at any
// worker count.
//
// If the context is cancelled, RunBatch flushes what finished (completed
// results were already committed to the store as they were produced), aborts
// the rest promptly, and returns a *PartialError listing finished vs.
// aborted keys. Otherwise the returned error is the first per-job failure in
// submission order (the remaining jobs still run, and their results are
// valid).
func (s *Scheduler) RunBatch(ctx context.Context, b Batch) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(b.Jobs))
	for i := range b.Jobs {
		results[i].Job = b.Jobs[i]
	}
	if len(b.Jobs) == 0 {
		return results, nil
	}

	br := &batchRun{
		ctx:     ctx,
		jobs:    b.Jobs,
		results: results,
		onProg:  b.OnProgress,
		onSlice: b.OnSlice,
	}

	// Coalesce identical jobs, preserving first-appearance order. A batch
	// shares a few configs among many jobs, so each config is hashed once.
	hashes := make(map[*config.Config]string)
	byKey := make(map[Key]*group, len(b.Jobs))
	for i, j := range b.Jobs {
		h, ok := hashes[j.Config]
		if !ok {
			h = j.Config.SeedlessHash()
			hashes[j.Config] = h
		}
		k := j.keyWith(h)
		g := byKey[k]
		if g == nil {
			g = &group{key: k}
			byKey[k] = g
			br.groups = append(br.groups, g)
		}
		g.indices = append(g.indices, i)
	}
	s.batches.Add(1)
	s.jobs.Add(uint64(len(b.Jobs)))

	// Store first: groups already answered by it never reach a worker.
	misses := br.groups
	if s.store != nil {
		misses = s.lookup(br, b.Parallelism)
	}

	s.queued.Add(int64(len(misses)))
	s.spread(len(misses), b.Parallelism, func(i int) {
		s.queued.Add(-1)
		st, err := s.resolve(br, misses[i])
		br.finish(misses[i], st, false, err)
	})

	return results, br.finalError()
}

// lookup answers br's groups from the store, finishing every hit, and
// returns the missed groups in submission order. It returns before any miss
// executes, so no hit waits behind a simulation.
func (s *Scheduler) lookup(br *batchRun, batchPar int) []*group {
	hit := make([]bool, len(br.groups))
	s.spread(len(br.groups), batchPar, func(i int) {
		g := br.groups[i]
		if st, ok := s.store.Get(g.key); ok {
			br.finish(g, st, true, nil)
			hit[i] = true
		}
	})
	var misses []*group
	for i, g := range br.groups {
		if !hit[i] {
			misses = append(misses, g)
		}
	}
	return misses
}

// spread calls fn for every index in [0, n), taken in increasing order by
// min(n, SchedulerOptions.Parallelism, batchPar) goroutines of the calling
// batch (batchPar <= 0: no batch bound), and returns when every call has.
func (s *Scheduler) spread(n, batchPar int, fn func(i int)) {
	workers := min(n, cap(s.slots))
	if batchPar > 0 {
		workers = min(workers, batchPar)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// resolve produces the outcome of one missed group: it joins another batch's
// flight for the key (holding no slot while it waits), or owns a new flight
// and executes the job. A waiter outlives its owner's cancellation: when the
// owning batch dies, a live waiter loops and owns the next flight.
func (s *Scheduler) resolve(br *batchRun, g *group) (*metrics.Stats, error) {
	for {
		if br.ctx.Err() != nil {
			return nil, context.Cause(br.ctx)
		}
		s.mu.Lock()
		fl, ok := s.inflight[g.key]
		if !ok {
			fl = &flight{done: make(chan struct{})}
			s.inflight[g.key] = fl
			s.mu.Unlock()
			return s.own(br, g, fl)
		}
		s.mu.Unlock()

		s.waiting.Add(1)
		select {
		case <-fl.done:
			s.waiting.Add(-1)
			if !fl.abandoned {
				return fl.st, fl.err
			}
		case <-br.ctx.Done():
			s.waiting.Add(-1)
			return nil, context.Cause(br.ctx)
		}
	}
}

// own executes g's job under one of the scheduler's slots, writes a success
// back to the store, and publishes the outcome to fl's waiters.
func (s *Scheduler) own(br *batchRun, g *group, fl *flight) (st *metrics.Stats, err error) {
	defer func() {
		fl.st, fl.err = st, err
		fl.abandoned = err != nil && br.ctx.Err() != nil
		s.mu.Lock()
		delete(s.inflight, g.key)
		s.mu.Unlock()
		close(fl.done)
	}()

	select {
	case s.slots <- struct{}{}:
	case <-br.ctx.Done():
		return nil, context.Cause(br.ctx)
	}
	defer func() { <-s.slots }()
	if br.ctx.Err() != nil { // both were ready and select picked the slot
		return nil, context.Cause(br.ctx)
	}

	s.running.Add(1)
	start := time.Now()
	j := br.jobs[g.indices[0]]
	if s.slicedOK && j.Slices > 1 {
		st, err = s.runSlicedSafe(br, j, g.indices[0])
	} else {
		st, err = s.runExec(br.ctx, j)
	}
	if err == nil && s.store != nil {
		s.store.Put(g.key, st, time.Since(start)) // best-effort by contract
	}
	s.running.Add(-1)
	s.sims.Add(1) // every executor run counts, failed ones included
	if st != nil {
		s.cyclesSkipped.Add(st.SkippedCycles)
	}
	return st, err
}

// runExec invokes the executor with a panic backstop: a long-lived scheduler
// (a serving daemon above all) must degrade a panicking job — however it got
// past validation — to a per-job failure, never to a process crash.
func (s *Scheduler) runExec(ctx context.Context, j Job) (st *metrics.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("runner: executor panicked on %s: %v", j.Bench, r)
		}
	}()
	return s.exec(ctx, j)
}

// runSlicedSafe runs a sliced job with the same panic backstop as runExec and
// forwards slice resolutions to the batch's OnSlice observer.
func (s *Scheduler) runSlicedSafe(br *batchRun, j Job, index int) (st *metrics.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("runner: sliced executor panicked on %s: %v", j.Bench, r)
		}
	}()
	var notify func(slice int, resumed bool)
	if br.onSlice != nil {
		notify = func(slice int, resumed bool) {
			br.mu.Lock()
			br.onSlice(SliceProgress{Index: index, Slice: slice, Slices: int(j.Slices), Resumed: resumed})
			br.mu.Unlock()
		}
	}
	return s.runSliced(br.ctx, j, notify)
}

// finish delivers one group's outcome to every submitted index and fires
// progress. Each group is finished exactly once.
func (br *batchRun) finish(g *group, st *metrics.Stats, hit bool, err error) {
	br.mu.Lock()
	defer br.mu.Unlock()
	for _, i := range g.indices {
		if err != nil {
			br.results[i].Err = err
		} else {
			snap := st.Snapshot()
			br.results[i].Stats = &snap
		}
		br.done++
		if br.onProg != nil {
			br.onProg(Progress{
				Done: br.done, Total: len(br.jobs), Index: i, CacheHit: hit,
				Job: br.jobs[i], Stats: br.results[i].Stats, Err: err,
			})
		}
	}
}

// finalError reproduces the batch-level error contract: a *PartialError
// after cancellation (unless everything finished anyway), else the first
// per-job failure in submission order.
func (br *batchRun) finalError() error {
	if br.ctx.Err() != nil {
		var finished, aborted []Key
		for _, g := range br.groups {
			if br.results[g.indices[0]].Stats != nil {
				finished = append(finished, g.key)
			} else {
				aborted = append(aborted, g.key)
			}
		}
		completed := 0
		for i := range br.results {
			if br.results[i].Stats != nil {
				completed++
			}
		}
		// A cancellation that landed after the last job finished lost
		// nothing — return the complete results as a success.
		if completed < len(br.results) {
			return &PartialError{
				Done:     completed,
				Total:    len(br.results),
				Finished: finished,
				Aborted:  aborted,
				Err:      context.Cause(br.ctx),
			}
		}
	}
	for i := range br.results {
		if br.results[i].Err != nil {
			return &JobFailure{Index: i, Bench: br.results[i].Job.Bench, Err: br.results[i].Err}
		}
	}
	return nil
}
