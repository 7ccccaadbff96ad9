package runner

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsepsim/internal/metrics"
)

// Batch is the unit of admission: a list of jobs scheduled together, with
// batch-level policy. It is the in-memory form of BatchSpec plus the bits
// that cannot cross a wire (the progress callback).
type Batch struct {
	Jobs []Job
	// Priority orders batches against each other; higher-priority work is
	// popped from the scheduler's queue first. Ties run in submission order.
	Priority int
	// Parallelism bounds how many of this batch's jobs run concurrently;
	// <= 0 means no per-batch bound (the scheduler's global bound applies).
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

// Summary renders the finished/aborted split compactly for logs.
func (e *PartialError) Summary() string {
	return fmt.Sprintf("%d finished, %d aborted", len(e.Finished), len(e.Aborted))
}

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
	// Parallelism bounds concurrently executing jobs across all batches;
	// <= 0 means NumCPU.
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
// single-flight), resolves store hits without touching the executor, and
// dispatches the rest to a bounded worker set in (priority, submission)
// order. Workers are spawned on demand and exit when the queue drains, so an
// idle scheduler owns no goroutines.
type Scheduler struct {
	par   int
	exec  Executor
	store Store // nil: never hits, counts nothing
	// slicedOK records whether the executor is the in-process pipeline:
	// sliced decomposition drives pipeline.Core checkpoints directly, so a
	// custom Executor (a test stub, a remote hop) falls back to monolithic
	// execution.
	slicedOK bool

	mu       sync.Mutex
	queue    schedQueue
	inflight map[Key]*flight
	workers  int
	running  int
	waiting  int
	seq      uint64

	batches       uint64
	jobs          uint64
	sims          uint64
	slicesRun     uint64
	slicesResumed uint64
	cyclesSkipped uint64

	// ckptLen is the length of the last checkpoint runSliced wrote, the
	// initial capacity of the next one's buffer.
	ckptLen atomic.Int64
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
		par:      par,
		exec:     exec,
		store:    opt.Store,
		slicedOK: opt.Executor == nil,
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
	// QueueDepth is the number of queued (admitted, not yet running) jobs.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		QueueDepth:    s.queue.Len(),
		Running:       s.running,
		Waiting:       s.waiting,
		Batches:       s.batches,
		Jobs:          s.jobs,
		Simulations:   s.sims,
		SlicesRun:     s.slicesRun,
		SlicesResumed: s.slicesResumed,
		CyclesSkipped: s.cyclesSkipped,
	}
}

// Group/flight scheduling states, guarded by Scheduler.mu.
const (
	statePending = iota // known to the batch, not yet admitted
	stateQueued         // owner of a flight, sitting in the queue
	stateRunning        // owner of a flight, executing
	stateWaiting        // subscribed to another batch's flight
	stateDone           // finished (result or error delivered)
)

// group is one single-flight unit within a batch: every submitted job index
// that shares a key, resolved once.
type group struct {
	key     Key
	indices []int

	state    int     // guarded by Scheduler.mu
	fl       *flight // the flight this group waits on (stateWaiting)
	admitted bool    // guarded by batchRun.mu: counts against the batch's bound
}

// flight is one in-flight execution of a key, shared across batches: the
// owner (a queued/running group) executes; waiters receive the outcome.
type flight struct {
	key     Key
	waiters []waiter
}

type waiter struct {
	br *batchRun
	g  *group
}

// schedItem is one queue entry: a group owning a flight, tagged for ordering.
type schedItem struct {
	br    *batchRun
	g     *group
	fl    *flight
	prio  int
	seq   uint64
	index int // heap bookkeeping
}

// schedQueue pops the highest priority first, submission order within one.
type schedQueue []*schedItem

func (q schedQueue) Len() int { return len(q) }
func (q schedQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q schedQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *schedQueue) Push(x any) {
	it := x.(*schedItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *schedQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// batchRun is the per-submission state: results, progress, and the admission
// window.
type batchRun struct {
	s        *Scheduler
	ctx      context.Context
	jobs     []Job
	results  []Result
	onProg   func(Progress)
	onSlice  func(SliceProgress)
	priority int
	limit    int
	groups   []*group

	mu        sync.Mutex
	pending   []*group
	done      int
	active    int
	remaining int
	finished  chan struct{}
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
		s:        s,
		ctx:      ctx,
		jobs:     b.Jobs,
		results:  results,
		onProg:   b.OnProgress,
		onSlice:  b.OnSlice,
		priority: b.Priority,
		limit:    b.Parallelism,
		finished: make(chan struct{}),
	}

	// Coalesce identical jobs, preserving first-appearance order.
	byKey := make(map[Key]*group, len(b.Jobs))
	for i, j := range b.Jobs {
		k := j.Key()
		g := byKey[k]
		if g == nil {
			g = &group{key: k}
			byKey[k] = g
			br.groups = append(br.groups, g)
		}
		g.indices = append(g.indices, i)
	}
	br.remaining = len(br.groups)

	s.mu.Lock()
	s.batches++
	s.jobs += uint64(len(b.Jobs))
	s.mu.Unlock()

	// Store first: groups already answered by it never reach the queue, and
	// misses become the admission backlog.
	var misses []*group
	for _, g := range br.groups {
		if s.store != nil {
			if st, ok := s.store.Get(g.key); ok {
				s.mu.Lock()
				g.state = stateDone
				s.mu.Unlock()
				s.finishGroup(br, g, st, true, nil)
				continue
			}
		}
		misses = append(misses, g)
	}

	// Admission: everything at once without a per-batch bound, otherwise an
	// initial window that finishGroup keeps topped up.
	var admit []*group
	br.mu.Lock()
	if br.limit <= 0 {
		admit = misses
		for _, g := range admit {
			g.admitted = true
		}
		br.active = len(admit)
	} else {
		br.pending = misses
		for br.active < br.limit && len(br.pending) > 0 {
			g := br.pending[0]
			br.pending = br.pending[1:]
			g.admitted = true
			br.active++
			admit = append(admit, g)
		}
	}
	br.mu.Unlock()
	for _, g := range admit {
		s.schedule(br, g)
	}

	select {
	case <-br.finished:
	case <-ctx.Done():
		s.drain(br)
		<-br.finished
	}

	return results, br.finalError()
}

// schedule makes g runnable: it either joins an existing flight for the same
// key (cross-request single-flight), or becomes the owner of a new one and
// enters the queue. A cancelled batch's group is finished on the spot.
func (s *Scheduler) schedule(br *batchRun, g *group) {
	s.mu.Lock()
	if g.state == stateDone {
		s.mu.Unlock()
		return
	}
	if br.ctx.Err() != nil {
		g.state = stateDone
		s.mu.Unlock()
		s.finishGroup(br, g, nil, false, context.Cause(br.ctx))
		return
	}
	if fl, ok := s.inflight[g.key]; ok {
		g.state = stateWaiting
		g.fl = fl
		fl.waiters = append(fl.waiters, waiter{br: br, g: g})
		s.waiting++
		s.mu.Unlock()
		return
	}
	fl := &flight{key: g.key}
	s.inflight[g.key] = fl
	s.enqueueLocked(br, g, fl)
	s.mu.Unlock()
}

// enqueueLocked makes g the owner of fl, queues it, and keeps the worker
// set topped up. Scheduler.mu must be held.
func (s *Scheduler) enqueueLocked(br *batchRun, g *group, fl *flight) {
	g.state = stateQueued
	g.fl = fl
	it := &schedItem{br: br, g: g, fl: fl, prio: br.priority, seq: s.seq}
	s.seq++
	heap.Push(&s.queue, it)
	if s.workers < s.par {
		s.workers++
		go s.worker()
	}
}

// worker executes queued flights until the queue drains, then exits.
func (s *Scheduler) worker() {
	for {
		s.mu.Lock()
		if s.queue.Len() == 0 {
			s.workers--
			s.mu.Unlock()
			return
		}
		it := heap.Pop(&s.queue).(*schedItem)
		if it.g.state != stateQueued {
			// Resolved while queued (batch drained); the flight was retired
			// or handed to a promoted waiter already.
			s.mu.Unlock()
			continue
		}
		it.g.state = stateRunning
		s.running++
		s.mu.Unlock()

		br, g := it.br, it.g
		if br.ctx.Err() != nil {
			// Not an executor run: the batch died while this sat queued.
			s.mu.Lock()
			s.running--
			s.mu.Unlock()
			s.completeFlight(it, nil, context.Cause(br.ctx))
			continue
		}
		start := time.Now()
		j := br.jobs[g.indices[0]]
		var st *metrics.Stats
		var err error
		if s.slicedOK && j.Slices > 1 {
			st, err = s.runSlicedSafe(br, j, g.indices[0])
		} else {
			st, err = s.runExec(br.ctx, j)
		}
		if err == nil && s.store != nil {
			s.store.Put(g.key, st, time.Since(start)) // best-effort by contract
		}

		s.mu.Lock()
		s.running--
		s.sims++ // every executor run counts, failed ones included
		if st != nil {
			s.cyclesSkipped += st.SkippedCycles
		}
		s.mu.Unlock()
		s.completeFlight(it, st, err)
	}
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

// completeFlight retires a flight: the owner group and every waiter receive
// the outcome. A waiter whose own batch is still live does not inherit the
// owner's cancellation — it is rescheduled as a fresh attempt instead.
func (s *Scheduler) completeFlight(it *schedItem, st *metrics.Stats, err error) {
	br, g, fl := it.br, it.g, it.fl
	ownerCancelled := err != nil && br.ctx.Err() != nil

	var deliver, resched []waiter
	s.mu.Lock()
	g.state = stateDone
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	for _, w := range fl.waiters {
		if w.g.state != stateWaiting {
			continue // drained by its own batch already
		}
		s.waiting--
		if ownerCancelled && w.br.ctx.Err() == nil {
			w.g.state = statePending
			resched = append(resched, w)
		} else {
			w.g.state = stateDone
			deliver = append(deliver, w)
		}
	}
	fl.waiters = nil
	s.mu.Unlock()

	s.finishGroup(br, g, st, false, err)
	for _, w := range deliver {
		s.finishGroup(w.br, w.g, st, false, err)
	}
	for _, w := range resched {
		s.schedule(w.br, w.g)
	}
}

// drain resolves a cancelled batch's outstanding work without waiting for
// the queue: pending and queued groups finish immediately with the
// cancellation cause, waiting groups detach from their flights, and running
// groups are left to the executor's own prompt cancellation. A queued
// group's flight is handed to its first live waiter (another batch must not
// lose its slot because this one was cancelled), or retired.
func (s *Scheduler) drain(br *batchRun) {
	cause := context.Cause(br.ctx)

	var toFinish []*group
	s.mu.Lock()
	for _, g := range br.groups {
		switch g.state {
		case statePending:
			g.state = stateDone
			toFinish = append(toFinish, g)
		case stateWaiting:
			if g.fl != nil {
				ws := g.fl.waiters[:0]
				for _, w := range g.fl.waiters {
					if w.g != g {
						ws = append(ws, w)
					}
				}
				g.fl.waiters = ws
			}
			g.state = stateDone
			s.waiting--
			toFinish = append(toFinish, g)
		case stateQueued:
			g.state = stateDone
			toFinish = append(toFinish, g)
			fl := g.fl
			promoted := false
			for i, w := range fl.waiters {
				if w.g.state == stateWaiting && w.br.ctx.Err() == nil {
					fl.waiters = append(fl.waiters[:i:i], fl.waiters[i+1:]...)
					s.waiting--
					s.enqueueLocked(w.br, w.g, fl)
					promoted = true
					break
				}
			}
			if !promoted && s.inflight[fl.key] == fl {
				delete(s.inflight, fl.key)
			}
		}
	}
	s.mu.Unlock()

	for _, g := range toFinish {
		s.finishGroup(br, g, nil, false, cause)
	}
}

// finishGroup delivers one group's outcome to every submitted index, fires
// progress, tops up the batch's admission window, and releases RunBatch when
// the batch is complete. Each group is finished exactly once (the state
// machine under Scheduler.mu guarantees it).
func (s *Scheduler) finishGroup(br *batchRun, g *group, st *metrics.Stats, hit bool, err error) {
	var admit []*group
	br.mu.Lock()
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
	if g.admitted {
		br.active--
	}
	if br.limit > 0 && br.ctx.Err() == nil {
		for br.active < br.limit && len(br.pending) > 0 {
			n := br.pending[0]
			br.pending = br.pending[1:]
			n.admitted = true
			br.active++
			admit = append(admit, n)
		}
	}
	br.remaining--
	last := br.remaining == 0
	br.mu.Unlock()

	for _, n := range admit {
		s.schedule(br, n)
	}
	if last {
		close(br.finished)
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
