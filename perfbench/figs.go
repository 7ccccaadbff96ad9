package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
	"rsepsim/internal/store"
)

// figureRunners are the ten figure runners `experiments -fig all` runs, in
// its order.
var figureRunners = []struct {
	name string
	run  func(context.Context, experiments.Options) (*metrics.Table, error)
}{
	{"1", experiments.Figure1},
	{"4", experiments.Figure4},
	{"5", experiments.Figure5},
	{"6", experiments.Figure6},
	{"7", experiments.Figure7},
	{"hist", experiments.HistoryDepth},
	{"isrb", experiments.ISRBSweep},
	{"hash", experiments.HashWidth},
	{"comparators", experiments.Comparators},
	{"gshare", experiments.GShareVsTAGE},
}

// sharedBench is the benchmark that figs-warm also answers at figs-cold
// scale, so the two workloads share keys and must agree on their results.
const sharedBench = "hmmer"

// coldOptions is the figs-cold protocol, the reduced scale of the repo's
// figure benches: memory-bound mcf and libquantum next to compute-bound
// hmmer, perlbench, dealII and wrf, one segment of 30k warmup plus 50k
// measured instructions.
func coldOptions(seed int64) experiments.Options {
	return experiments.Options{
		Benchmarks: []string{"mcf", "libquantum", "hmmer", "perlbench", "dealII", "wrf"},
		Segments:   1,
		Warmup:     30_000,
		Measure:    50_000,
		BaseSeed:   seed,
	}
}

// sharedOptions is coldOptions restricted to sharedBench.
func sharedOptions(seed int64) experiments.Options {
	o := coldOptions(seed)
	o.Benchmarks = []string{sharedBench}
	return o
}

// warmOptions is the figs-warm key set: every profile at two segments of
// 1k+2k instructions, so the fill stays short while the key set is several
// times figs-cold's, plus sharedBench at figs-cold scale.
func warmOptions(seed int64) []experiments.Options {
	return []experiments.Options{
		{Segments: 2, Warmup: 1_000, Measure: 2_000, BaseSeed: seed},
		sharedOptions(seed),
	}
}

// plan is the job list of one pass, recorded by running the figure runners
// against a runner that simulates nothing.
type plan struct {
	batches  [][]runner.Job // one per (option set, figure), in pass order
	jobs     []runner.Job   // the batches concatenated
	firstIdx []int          // index of each key's first job
	simInsts uint64         // warmup+measure over the distinct keys
	shared   []int          // jobs on sharedBench at figs-cold scale
}

// planRunner records batches and answers them with placeholder stats.
type planRunner struct{ batches [][]runner.Job }

func (p *planRunner) RunBatch(_ context.Context, b runner.Batch) ([]runner.Result, error) {
	p.batches = append(p.batches, b.Jobs)
	res := make([]runner.Result, len(b.Jobs))
	for i, j := range b.Jobs {
		res[i] = runner.Result{Job: j, Stats: &metrics.Stats{Cycles: 1, Committed: 1, Eligible: 1}}
	}
	return res, nil
}

func planSweep(sets []experiments.Options) (*plan, error) {
	rec := &planRunner{}
	for _, set := range sets {
		for _, f := range figureRunners {
			opt := set
			opt.Runner = rec
			if _, err := f.run(context.Background(), opt); err != nil {
				return nil, fmt.Errorf("planning figure %s: %w", f.name, err)
			}
		}
	}
	p := &plan{batches: rec.batches}
	cold := coldOptions(0)
	seen := make(map[runner.Key]bool)
	for _, b := range rec.batches {
		for _, j := range b {
			i := len(p.jobs)
			p.jobs = append(p.jobs, j)
			if k := j.Key(); !seen[k] {
				seen[k] = true
				p.firstIdx = append(p.firstIdx, i)
				p.simInsts += j.Warmup + j.Measure
			}
			if j.Bench == sharedBench && j.Warmup == cold.Warmup && j.Measure == cold.Measure {
				p.shared = append(p.shared, i)
			}
		}
	}
	return p, nil
}

func (p *plan) configs() []*config.Config {
	out := make([]*config.Config, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = j.Config
	}
	return out
}

// figs is the figs-cold and figs-warm workload: the ten figure runners share
// one store per pass, as `experiments -fig all` runs them. figs-cold starts
// every pass on an empty on-disk store; figs-warm opens a fresh store.Tiered
// (empty memory tier) over a directory its set-up filled, and must simulate
// nothing.
type figs struct {
	sets   []experiments.Options
	warmup []experiments.Options // figs-cold set-up: a warm-up sweep
	warm   bool
	plan   *plan
	dir    string

	fills    int
	fill     string           // figs-warm: the filled store directory
	ref      []jobHash        // figs-warm: the fill's results
	modelSrc []*metrics.Stats // in-memory results of one simulated sweep
	passes   int
}

func newFigs(sets, warmup []experiments.Options, warm bool, dir string) (*figs, error) {
	p, err := planSweep(sets)
	if err != nil {
		return nil, err
	}
	return &figs{sets: sets, warmup: warmup, warm: warm, plan: p, dir: dir}, nil
}

// geometries is nil for figs-warm: its passes simulate nothing, so they
// never read or change the core pool, which stays as the last fill left it.
func (f *figs) geometries() []*config.Config {
	if f.warm {
		return nil
	}
	return f.plan.configs()
}

func (f *figs) reference() []jobHash { return f.ref }
func (f *figs) shared() []int        { return f.plan.shared }
func (f *figs) close()               {}

// setup is, for figs-cold, a warm-up sweep of sharedBench at pass scale on
// a throwaway store, and for figs-warm, filling a fresh store directory with
// every key of the pass.
func (f *figs) setup() error {
	f.fills++
	dir := filepath.Join(f.dir, fmt.Sprintf("fill-%d", f.fills))
	st, err := openTiered(dir)
	if err != nil {
		return err
	}
	if !f.warm {
		defer os.RemoveAll(dir)
		_, err := f.sweep(f.warmup, st, nil, false)
		return err
	}
	sw, err := f.sweep(f.sets, st, nil, true)
	if err != nil {
		return err
	}
	for i, st := range sw.stats {
		if st == nil {
			return fmt.Errorf("fill: job %d (%s) failed", i, f.plan.jobs[i].Bench)
		}
	}
	if err := st.Disk().Err(); err != nil {
		return fmt.Errorf("fill: store writes failing: %w", err)
	}
	if f.fill != "" {
		os.RemoveAll(f.fill)
	}
	f.fill, f.ref, f.modelSrc = dir, hashAll(sw.stats), sw.stats
	return nil
}

func openTiered(dir string) (*store.Tiered, error) {
	disk, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return store.NewTiered(disk, false), nil
}

// sweepOut is one sweep's per-job outcome in submission order.
type sweepOut struct {
	stats     []*metrics.Stats
	hits      []bool
	latencies []float64
}

// sweep runs the ten figure runners over every option set against st. With
// a tracing context the batches go through a traced scheduler; otherwise
// through the production path, experiments' own pool over st.
func (f *figs) sweep(sets []experiments.Options, st *store.Tiered, tc *tracing, keepGoing bool) (*sweepOut, error) {
	out := &sweepOut{}
	var sched runner.BatchRunner
	if tc != nil {
		ts := &timedStore{inner: st, tr: tc.tr}
		sched = &tracedRunner{
			next: runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism, Store: ts, Executor: tc.exec.run}),
			tr:   tc.tr, name: "runner.RunBatch",
		}
	}
	for _, set := range sets {
		for _, fig := range figureRunners {
			opt := set
			opt.Parallelism = parallelism
			if sched != nil {
				opt.Runner = sched
			} else {
				opt.Store = st
			}
			var stats []*metrics.Stats
			var hits []bool
			start := time.Now()
			opt.Progress = func(p runner.Progress) {
				out.latencies = append(out.latencies, float64(time.Since(start))/1e6)
				if p.Total > len(stats) {
					stats = append(stats, make([]*metrics.Stats, p.Total-len(stats))...)
					hits = append(hits, make([]bool, p.Total-len(hits))...)
				}
				if p.Err == nil {
					stats[p.Index], hits[p.Index] = p.Stats, p.CacheHit
				}
			}
			var err error
			if tc != nil {
				s, parent := tc.tr.open(true)
				restore := tc.tr.enter(s)
				_, err = fig.run(context.Background(), opt)
				tc.tr.close(s, parent, "experiments.figure", fig.name)
				restore()
			} else {
				_, err = fig.run(context.Background(), opt)
			}
			if err != nil && !keepGoing {
				return nil, fmt.Errorf("figure %s: %w", fig.name, err)
			}
			out.stats = append(out.stats, stats...)
			out.hits = append(out.hits, hits...)
		}
	}
	return out, nil
}

func hashAll(stats []*metrics.Stats) []jobHash {
	hs := make([]jobHash, len(stats))
	for i, st := range stats {
		if st != nil {
			hs[i] = hashStats(st)
		}
	}
	return hs
}

func (f *figs) pass(tc *tracing) (*passOut, error) {
	f.passes++
	start := time.Now()
	dir := f.fill
	if !f.warm {
		dir = filepath.Join(f.dir, fmt.Sprintf("pass-%d", f.passes))
		defer os.RemoveAll(dir)
	}
	st, err := openTiered(dir)
	if err != nil {
		return nil, err
	}
	before := st.Counters()
	sw, err := f.sweep(f.sets, st, tc, true)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	busy := int64(0)
	if tc != nil {
		busy = tc.exec.takeBusy()
	}
	if err := st.Disk().Err(); err != nil {
		return nil, fmt.Errorf("store writes failing: %w", err)
	}
	d := st.Counters().Sub(before)
	n := len(f.plan.jobs)
	out := &passOut{
		wall:      wall,
		latencies: sw.latencies,
		bad:       make([]bool, n),
		counts: map[string]float64{
			"runner.simulations": float64(d.Misses),
			"runner.dedup_ratio": ratio(float64(len(f.plan.firstIdx)), float64(n)),
			"store.hit_ratio":    ratio(float64(d.Hits), float64(d.Hits+d.Misses)),
		},
	}
	if tc != nil {
		out.counts["runner.worker_busy_frac"] = ratio(float64(busy), float64(wall)*parallelism)
	}
	if len(sw.stats) != n {
		return nil, fmt.Errorf("pass resolved %d jobs, want %d", len(sw.stats), n)
	}
	out.hashes = hashAll(sw.stats)
	for i, st := range sw.stats {
		out.bad[i] = st == nil
	}
	if f.warm {
		// runner.simulations must be 0: every job is answered by the store.
		for i, hit := range sw.hits {
			if !hit {
				out.bad[i] = true
			}
		}
	} else {
		out.simInsts = f.plan.simInsts
		if f.modelSrc == nil {
			f.modelSrc = sw.stats
		}
	}
	return out, nil
}

func (f *figs) layers(out map[string]float64) error {
	replayComponents(streamsOf(f.plan.jobs), out)
	var stats []*metrics.Stats
	var cfgs []*config.Config
	for _, i := range f.plan.firstIdx {
		stats = append(stats, f.modelSrc[i])
		cfgs = append(cfgs, f.plan.jobs[i].Config)
	}
	modelStats(stats, cfgs, out)
	return nil
}
