// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index). Each
// runner simulates the benchmark suite under the relevant configurations and
// renders a metrics.Table whose rows mirror the figure's series.
//
// All simulation goes through internal/runner: a figure expands to a list of
// (benchmark, configuration, segment) jobs, and the scheduler handles
// parallelism, cancellation, deduplication and result caching. Passing the
// same Options.Store to several figure runners lets them reuse each other's
// simulations — Figures 4, 5 and 6 share baseline and ideal-RSEP
// configurations that would otherwise be re-simulated from scratch — and a
// persistent store (internal/store) extends that reuse across processes.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
	"rsepsim/internal/workload"
)

// Options controls the simulation protocol: the paper uses 10 checkpoints of
// 50M warmup + 100M measured instructions per benchmark; the reproduction
// defaults to laptop-scale equivalents (see DESIGN.md §8).
type Options struct {
	Benchmarks []string // nil = the full 29-benchmark suite
	Segments   int      // "checkpoints" per benchmark
	Warmup     uint64   // warmup instructions per segment
	Measure    uint64   // measured instructions per segment
	BaseSeed   int64
	// Parallelism bounds concurrent simulations. In-process it sizes the
	// scheduler (default: NumCPU); with a remote Runner it rides along as the
	// per-batch bound, where 0 means "let the daemon decide".
	Parallelism int
	// Slices > 1 decomposes every job into that many checkpoint-chained
	// sub-runs (see runner.Job.Slices); results are byte-identical either
	// way, but a killed sweep resumes from finished slices instead of
	// finished jobs.
	Slices uint32

	// Store, when non-nil, is consulted for every job and filled with every
	// simulated result. Share one across figure runners to skip
	// configurations they have in common; mount a persistent store
	// (internal/store) to skip them across invocations and machines.
	Store runner.Store
	// Runner, when non-nil, executes every batch instead of the in-process
	// pool built from Store/Parallelism — point it at a serve.Client to run
	// against a remote daemon. The figure runners are oblivious to the
	// difference; results and tables are identical either way.
	Runner runner.BatchRunner
	// Progress, when non-nil, observes every job completion.
	Progress func(runner.Progress)
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Segments == 0 {
		o.Segments = 2
	}
	if o.Warmup == 0 {
		o.Warmup = 100_000
	}
	if o.Measure == 0 {
		o.Measure = 200_000
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1000
	}
	if o.Parallelism == 0 && o.Runner == nil {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// batchRunner returns the execution backend for these options: the explicit
// Runner when set, an in-process scheduler otherwise.
func (o Options) batchRunner() runner.BatchRunner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.NewScheduler(runner.SchedulerOptions{
		Parallelism: o.Parallelism,
		Store:       o.Store,
	})
}

// Result is the aggregate of one benchmark under one configuration.
type Result struct {
	Bench string
	IPC   float64 // harmonic mean over segments
	Stats metrics.Stats
}

// Run simulates bench under cfg across the configured segments.
func Run(bench string, cfg *config.Config, opt Options) (Result, error) {
	return RunContext(context.Background(), bench, cfg, opt)
}

// RunContext is Run with cancellation.
func RunContext(ctx context.Context, bench string, cfg *config.Config, opt Options) (Result, error) {
	opt.Benchmarks = []string{bench}
	res, err := SweepContext(ctx, []*config.Config{cfg}, opt)
	if err != nil {
		return Result{}, err
	}
	return res[0][0], nil
}

// Sweep runs every benchmark under every configuration concurrently and
// returns results[benchIndex][configIndex]. Results are deterministic for a
// given BaseSeed at any Parallelism.
func Sweep(cfgs []*config.Config, opt Options) ([][]Result, error) {
	return SweepContext(context.Background(), cfgs, opt)
}

// SweepContext is Sweep with cancellation: a cancelled context aborts the
// in-flight simulations promptly and returns a runner.PartialError.
func SweepContext(ctx context.Context, cfgs []*config.Config, opt Options) ([][]Result, error) {
	opt = opt.Defaults()

	jobs := make([]runner.Job, 0, len(opt.Benchmarks)*len(cfgs)*opt.Segments)
	for _, bench := range opt.Benchmarks {
		for _, cfg := range cfgs {
			for s := 0; s < opt.Segments; s++ {
				jobs = append(jobs, runner.Job{
					Bench:   bench,
					Config:  cfg,
					Seed:    opt.BaseSeed + int64(s),
					Warmup:  opt.Warmup,
					Measure: opt.Measure,
					Slices:  opt.Slices,
				})
			}
		}
	}
	b := runner.Batch{Jobs: jobs, OnProgress: opt.Progress}
	if opt.Runner != nil {
		// Remotely, -par still means something: it becomes this batch's
		// concurrency bound on the daemon.
		b.Parallelism = opt.Parallelism
	}
	res, err := opt.batchRunner().RunBatch(ctx, b)
	if err != nil {
		return nil, err
	}

	results := make([][]Result, len(opt.Benchmarks))
	idx := 0
	for bi, bench := range opt.Benchmarks {
		results[bi] = make([]Result, len(cfgs))
		for ci := range cfgs {
			ipcs := make([]float64, 0, opt.Segments)
			var agg metrics.Stats
			for s := 0; s < opt.Segments; s++ {
				st := res[idx].Stats
				idx++
				ipcs = append(ipcs, st.IPC())
				agg.Merge(st)
			}
			results[bi][ci] = Result{Bench: bench, IPC: metrics.HarmonicMean(ipcs), Stats: agg}
		}
	}
	return results, nil
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func speedupStr(base, v float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(v/base-1))
}

func sortedCopy(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
