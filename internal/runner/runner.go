// Package runner is the execution layer every entry point drives simulations
// through: the experiment harness, the command-line tools, the examples and
// the benchmarks all submit Jobs instead of hand-rolling loops over
// pipeline.Core.
//
// A Job names one (benchmark, configuration, seed, protocol) simulation. The
// Scheduler runs batches of jobs on a bounded worker set with context
// cancellation, deduplicates identical jobs in flight (single-flight),
// consults an optional result Store keyed by the canonical configuration hash
// (the in-process Cache, or the persistent tiered store in internal/store),
// and reports per-job completion through a progress callback. Results come
// back in job-submission order regardless of worker count, so any sweep is
// deterministic at any parallelism.
package runner

import (
	"context"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/trace"
	"rsepsim/internal/workload"
)

// Job is the unit of simulation: one benchmark under one configuration for
// one segment (Warmup instructions of warmup, Measure measured).
type Job struct {
	Bench   string
	Config  *config.Config
	Seed    int64
	Warmup  uint64
	Measure uint64
	// Slices > 1 asks the scheduler to decompose the measurement into that
	// many checkpoint-chained sub-runs: slice k resumes from slice k-1's
	// checkpoint, per-slice results and checkpoints land in the store, and
	// the merged result is byte-identical to a monolithic run (so a killed
	// run resumes from its finished slices, and a finished run extends to a
	// longer Measure from its final checkpoint). 0 and 1 both mean
	// monolithic. Slicing is an execution strategy, not part of the
	// outcome's identity — see Key.
	Slices uint32
}

// Key identifies a Job's simulation outcome: two jobs with equal keys are
// guaranteed to produce identical Stats. The configuration is folded into a
// canonical hash with its Seed normalized to zero — the effective seed is
// the key's own Seed field, which the simulation applies to both the config
// and the workload generator. Slices is deliberately absent: a sliced run
// merges to the same bytes a monolithic run produces, so cached monoliths
// answer sliced submissions and vice versa.
type Key struct {
	Bench      string
	ConfigHash string
	Seed       int64
	Warmup     uint64
	Measure    uint64
}

// Key returns the job's cache/dedup key.
func (j Job) Key() Key { return j.keyWith(j.Config.SeedlessHash()) }

// keyWith returns the job's key given its config's SeedlessHash, so a batch
// that shares one config among many jobs hashes it once.
func (j Job) keyWith(configHash string) Key {
	return Key{
		Bench:      j.Bench,
		ConfigHash: configHash,
		Seed:       j.Seed,
		Warmup:     j.Warmup,
		Measure:    j.Measure,
	}
}

// Result pairs a job with its outcome. Exactly one of Stats and Err is set.
type Result struct {
	Job   Job
	Stats *metrics.Stats
	Err   error
}

// Simulate runs one job to completion and returns its measured statistics.
// The context cancels a running simulation promptly (the pipeline polls it
// every few thousand cycles); a cancelled simulation returns ctx's error.
func Simulate(ctx context.Context, j Job) (*metrics.Stats, error) {
	prof, err := workload.ByName(j.Bench)
	if err != nil {
		return nil, err
	}
	cfg := j.Config.Clone()
	cfg.Seed = j.Seed
	return SimulateSource(ctx, cfg, workload.New(prof, j.Seed), j.Warmup, j.Measure)
}

// SimulateSource runs the warmup/measure protocol over an arbitrary
// instruction source, such as a generator for a custom workload profile.
// Jobs with custom sources bypass the cache (their outcome is not identified
// by a benchmark name); named benchmarks should go through Simulate or a
// Scheduler instead.
//
// The core comes from (and returns to) the idle-core pool in corepool.go,
// so a warm worker pays an in-place reset, plus the tables of any mechanism
// the previous job did not run, instead of table construction per job. The
// returned Stats are a copy — the core's own counters are recycled with it.
func SimulateSource(ctx context.Context, cfg *config.Config, src trace.Source, warmup, measure uint64) (*metrics.Stats, error) {
	core := coreFor(cfg, src)
	if ctx != nil {
		core.SetCancel(ctx.Done())
	}
	core.Run(warmup)
	if ctx != nil && ctx.Err() != nil {
		putCore(core)
		return nil, context.Cause(ctx)
	}
	core.ResetStats()
	core.Run(measure)
	if ctx != nil && ctx.Err() != nil {
		putCore(core)
		return nil, context.Cause(ctx)
	}
	stats := *core.Stats()
	putCore(core)
	return &stats, nil
}
