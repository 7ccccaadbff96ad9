package main

import (
	"context"
	"sync"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/runner"
	"rsepsim/internal/workload"
)

// The traced run wraps each layer's public surface from outside: the
// scheduler behind a BatchRunner, the store behind runner.Store and
// runner.SliceStore, and the executor slot of runner.SchedulerOptions. None
// of these wrappers changes a result; the traced run's digest is checked
// against the untraced one.

// tracedRunner records a runner.RunBatch span and one config.Key span per
// job (the hash the scheduler computes for admission) around a scheduler.
type tracedRunner struct {
	next runner.BatchRunner
	tr   *tracer
	name string
}

func (r *tracedRunner) RunBatch(ctx context.Context, b runner.Batch) ([]runner.Result, error) {
	s, parent := r.tr.open(false)
	defer r.tr.enter(s)()
	for _, j := range b.Jobs {
		start := r.tr.now()
		j.Key()
		r.tr.leaf("config.Key", start)
	}
	res, err := r.next.RunBatch(ctx, b)
	r.tr.close(s, parent, r.name, "")
	return res, err
}

// timedStore times every store call. It forwards runner.SliceStore so the
// scheduler's sliced path still finds slice and checkpoint storage.
type timedStore struct {
	inner interface {
		runner.Store
		runner.SliceStore
	}
	tr *tracer

	mu          sync.Mutex
	ckptWritten int64
}

func (s *timedStore) Get(k runner.Key) (*metrics.Stats, bool) {
	start := s.tr.now()
	st, ok := s.inner.Get(k)
	s.tr.leaf("store.Get", start)
	return st, ok
}

func (s *timedStore) Put(k runner.Key, st *metrics.Stats, simTime time.Duration) {
	start := s.tr.now()
	s.inner.Put(k, st, simTime)
	s.tr.leaf("store.Put", start)
}

// ckptBytes returns the checkpoint bytes written so far.
func (s *timedStore) ckptBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptWritten
}

func (s *timedStore) Counters() runner.Counters { return s.inner.Counters() }

func (s *timedStore) GetSlice(k runner.SliceKey) (*metrics.Stats, bool) {
	start := s.tr.now()
	st, ok := s.inner.GetSlice(k)
	s.tr.leaf("store.GetSlice", start)
	return st, ok
}

func (s *timedStore) PutSlice(k runner.SliceKey, st *metrics.Stats) {
	start := s.tr.now()
	s.inner.PutSlice(k, st)
	s.tr.leaf("store.PutSlice", start)
}

func (s *timedStore) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	start := s.tr.now()
	blob, ok := s.inner.GetCheckpoint(k)
	s.tr.leaf("store.GetCheckpoint", start)
	return blob, ok
}

func (s *timedStore) PutCheckpoint(k runner.CheckpointKey, blob []byte) {
	start := s.tr.now()
	s.inner.PutCheckpoint(k, blob)
	s.tr.leaf("store.PutCheckpoint", start)
	s.mu.Lock()
	s.ckptWritten += int64(len(blob))
	s.mu.Unlock()
}

// mechanism groups a configuration for the per-mechanism pipeline rows.
func mechanism(cfg *config.Config) string {
	switch {
	case cfg.RSEP != nil && cfg.VP != nil:
		return "rsep_vp"
	case cfg.RSEP != nil && !cfg.OracleProbe:
		return "rsep"
	case cfg.VP != nil && !cfg.OracleProbe:
		return "vp"
	case !cfg.ZeroPred && !cfg.MoveElim && !cfg.OracleProbe:
		return "baseline"
	}
	return "other"
}

var mechanisms = []string{"baseline", "rsep", "vp", "rsep_vp", "other"}

// pipeAcc accumulates host time inside Core.Run per mechanism, with the
// instructions committed and the cycles actually stepped (not skipped by
// fast-forward) during those calls.
type pipeAcc struct {
	mu     sync.Mutex
	runNs  map[string]int64
	insts  map[string]uint64
	cycles uint64
	allNs  int64
}

func newPipeAcc() *pipeAcc {
	return &pipeAcc{runNs: make(map[string]int64), insts: make(map[string]uint64)}
}

func (a *pipeAcc) add(mech string, ns int64, insts, stepped uint64) {
	a.mu.Lock()
	a.runNs[mech] += ns
	a.insts[mech] += insts
	a.cycles += stepped
	a.allNs += ns
	a.mu.Unlock()
}

func (a *pipeAcc) report(out map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range mechanisms {
		out["pipeline.ns_per_inst."+m] = ratio(float64(a.runNs[m]), float64(a.insts[m]))
	}
	out["pipeline.ns_per_cycle"] = ratio(float64(a.allNs), float64(a.cycles))
}

// stepped is the number of cycles a Stats delta covers that the core
// actually stepped rather than fast-forwarded.
func stepped(st *metrics.Stats) uint64 { return st.Cycles - st.SkippedCycles }

// tracedExec is the benchmark-owned executor of the traced run. It performs
// exactly what runner.Simulate does — the same source, seed and
// warmup/measure protocol — but calls pipeline.New, ResetFor, Run,
// ResetStats and Stats itself, so each call gets a span. Like runner's core
// pool it keeps at most eight idle cores, one per geometry.
type tracedExec struct {
	tr  *tracer
	acc *pipeAcc

	mu    sync.Mutex
	cores map[string]*pipeline.Core
	waits []float64 // ns from batch submission to executor start
	busy  int64     // ns inside the executor
}

func newTracedExec(tr *tracer, acc *pipeAcc) *tracedExec {
	return &tracedExec{tr: tr, acc: acc, cores: make(map[string]*pipeline.Core)}
}

func (e *tracedExec) run(ctx context.Context, j runner.Job) (*metrics.Stats, error) {
	batch := e.tr.current()
	s, parent := e.tr.open(false)
	prof, err := workload.ByName(j.Bench)
	if err != nil {
		return nil, err
	}
	cfg := j.Config.Clone()
	cfg.Seed = j.Seed
	key := cfg.SeedlessHash()
	src := workload.New(prof, j.Seed)

	e.mu.Lock()
	core := e.cores[key]
	delete(e.cores, key)
	e.mu.Unlock()

	t := e.tr.now()
	if core != nil && core.ResetFor(cfg, src) {
		e.tr.leafUnder(s, "pipeline.ResetFor", t)
	} else {
		core = pipeline.New(cfg, src)
		e.tr.leafUnder(s, "pipeline.New", t)
	}
	core.SetCancel(ctx.Done())

	t = e.tr.now()
	core.Run(j.Warmup)
	ns := e.tr.leafUnder(s, "pipeline.Run", t)
	warm := *core.Stats()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	t = e.tr.now()
	core.ResetStats()
	e.tr.leafUnder(s, "pipeline.ResetStats", t)
	t = e.tr.now()
	core.Run(j.Measure)
	ns += e.tr.leafUnder(s, "pipeline.Run", t)
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	t = e.tr.now()
	st := *core.Stats()
	e.tr.leafUnder(s, "pipeline.Stats", t)

	e.mu.Lock()
	if _, dup := e.cores[key]; !dup && len(e.cores) < 8 {
		e.cores[key] = core
	}
	e.mu.Unlock()

	e.acc.add(mechanism(cfg), ns, warm.Committed+st.Committed, stepped(&warm)+stepped(&st))
	busy := e.tr.close(s, parent, "runner.job", j.Bench)
	e.mu.Lock()
	e.waits = append(e.waits, float64(s.start-batch.start))
	e.busy += busy
	e.mu.Unlock()
	return &st, nil
}

// takeBusy returns and clears the executor time accumulated so far.
func (e *tracedExec) takeBusy() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.busy
	e.busy = 0
	return b
}
