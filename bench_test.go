package rsepsim

// One benchmark per reproduced table/figure (DESIGN.md §4). Each iteration
// performs the figure's full sweep at reduced scale — the -bench harness is
// the machine-checked form of "the code that regenerates the evaluation".
// Micro-benchmarks for the hot components follow; each of their ops is a
// batch of microBatch calls.

import (
	"context"
	"math/rand"
	"testing"

	"rsepsim/internal/branch"
	"rsepsim/internal/config"
	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// benchOpt is the reduced-scale protocol used by the figure benches: a
// representative benchmark subset, one segment, small instruction counts.
func benchOpt() experiments.Options {
	return experiments.Options{
		Benchmarks: []string{"mcf", "dealII", "hmmer", "libquantum", "perlbench", "wrf"},
		Segments:   1,
		Warmup:     30_000,
		Measure:    50_000,
		BaseSeed:   1,
	}
}

func runFigure(b *testing.B, f func(context.Context, experiments.Options) (*metrics.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) { runFigure(b, experiments.Figure1) }
func BenchmarkFigure4(b *testing.B) { runFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B) { runFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B) { runFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B) { runFigure(b, experiments.Figure7) }

func BenchmarkHistoryDepth(b *testing.B) { runFigure(b, experiments.HistoryDepth) }
func BenchmarkISRBSweep(b *testing.B)    { runFigure(b, experiments.ISRBSweep) }
func BenchmarkHashWidth(b *testing.B)    { runFigure(b, experiments.HashWidth) }
func BenchmarkComparators(b *testing.B)  { runFigure(b, experiments.Comparators) }
func BenchmarkGShareVsTAGE(b *testing.B) { runFigure(b, experiments.GShareVsTAGE) }

// runnerJobs expands the reduced-scale protocol into one runner job per
// (bench, config) pair — the Figure 4 configuration set.
func runnerJobs() []runner.Job {
	opt := benchOpt()
	base := config.TableI()
	cfgs := []*config.Config{
		base,
		base.WithZeroPred(),
		base.WithRSEP(rsep.Ideal()),
	}
	var jobs []runner.Job
	for _, bench := range opt.Benchmarks {
		for _, cfg := range cfgs {
			jobs = append(jobs, runner.Job{
				Bench: bench, Config: cfg, Seed: opt.BaseSeed,
				Warmup: opt.Warmup, Measure: opt.Measure,
			})
		}
	}
	return jobs
}

// BenchmarkRunnerCold measures a full scheduler run with no cache: every job is
// simulated from scratch. Contrast with BenchmarkRunnerCached.
func BenchmarkRunnerCold(b *testing.B) {
	jobs := runnerJobs()
	for i := 0; i < b.N; i++ {
		sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 4})
		if _, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: jobs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerCached measures the same job set against a pre-warmed
// cache: identical (bench, config-hash, seed) jobs are never re-simulated,
// so each iteration is pure lookup — typically thousands of times faster
// than BenchmarkRunnerCold.
func BenchmarkRunnerCached(b *testing.B) {
	jobs := runnerJobs()
	cache := runner.NewCache()
	sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 4, Store: cache})
	batch := runner.Batch{Jobs: jobs}
	if _, err := sched.RunBatch(context.Background(), batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunBatch(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cache.Counters().Hits == 0 {
		b.Fatal("cache recorded no hits")
	}
}

// BenchmarkPipelineBaseline measures raw simulation throughput
// (simulated instructions per wall-clock second) on the Table I core.
func BenchmarkPipelineBaseline(b *testing.B) {
	benchPipeline(b, config.TableI())
}

// BenchmarkPipelineRSEP measures throughput with the full realistic RSEP
// machinery enabled.
func BenchmarkPipelineRSEP(b *testing.B) {
	benchPipeline(b, config.TableI().WithRSEP(rsep.Realistic()))
}

// BenchmarkPipelineRSEPVP measures throughput with both mechanisms on.
func BenchmarkPipelineRSEPVP(b *testing.B) {
	benchPipeline(b, config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()))
}

func benchPipeline(b *testing.B, cfg *config.Config) {
	b.Helper()
	const insts = 50_000
	prof := workload.MustByName("mcf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := pipeline.New(cfg, workload.New(prof, 42))
		core.Run(insts)
	}
	b.ReportMetric(float64(insts), "insts/op")
}

// BenchmarkPipelineWarmWorker measures the steady-state worker job cost: the
// core is reset in place per job (pipeline.Core.ResetFor) instead of rebuilt,
// and the workload generator rewound in place (workload.Gen.Reset), exactly
// as the runner's core and generator pools do between jobs. The gap between
// this and BenchmarkPipelineBaseline is the per-job construction tax the
// pools eliminate; what B/op remains is the generator's compiled kernels.
func BenchmarkPipelineWarmWorker(b *testing.B) {
	const insts = 50_000
	cfg := config.TableI()
	prof := workload.MustByName("mcf")
	gen := workload.New(prof, 42)
	core := pipeline.New(cfg, gen)
	core.Run(insts) // warm: grow arena, wheels, queues to the job's footprint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset(prof, 42)
		if !core.ResetFor(cfg, gen) {
			b.Fatal("ResetFor refused the identical config")
		}
		core.Run(insts)
	}
	b.ReportMetric(float64(insts), "insts/op")
}

// BenchmarkPipelineMechanismSwitch measures a worker whose jobs alternate
// mechanisms, as in the sliced daemon's baseline/RSEP/RSEP+VP rotation: one
// core is reset in place (pipeline.Core.ResetFor) for a baseline, an RSEP
// and an RSEP+VP job of 50k instructions each per op, over one generator
// rewound per job. B/op is the mechanism tables the switches rebuild —
// RSEP's when RSEP returns after the baseline job, D-VTAGE's when VP joins —
// never a whole core or a generator.
func BenchmarkPipelineMechanismSwitch(b *testing.B) {
	const insts = 50_000
	base := config.TableI()
	cfgs := []*config.Config{
		base,
		base.WithRSEP(rsep.Ideal()),
		base.WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()),
	}
	prof := workload.MustByName("mcf")
	gen := workload.New(prof, 42)
	core := pipeline.New(cfgs[len(cfgs)-1], gen)
	core.Run(insts) // warm: grow arena, wheels, queues to the job's footprint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			gen.Reset(prof, 42)
			core.ResetFor(cfg, gen)
			core.Run(insts)
		}
	}
	b.ReportMetric(float64(len(cfgs)*insts), "insts/op")
}

// microBatch is the number of calls one op of a micro-benchmark makes. CI
// runs the benchmarks at -benchtime 2x; with one call per op that timed two
// calls, mostly timer overhead and first-call warm-up, so ns/op is the cost
// of a whole batch and allocs/op what a warm batch allocates.
const microBatch = 4096

// BenchmarkWorkloadGen measures trace generation throughput alone.
func BenchmarkWorkloadGen(b *testing.B) {
	g := workload.New(workload.MustByName("xalancbmk"), 1)
	for range 16 * microBatch { // warm: grow the emission queue to its largest chunk
		g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range microBatch {
			g.Next()
		}
	}
}

// BenchmarkDistancePredictor measures TAGE distance lookup+update latency.
func BenchmarkDistancePredictor(b *testing.B) {
	dp := rsep.NewTAGEDist(rsep.RealisticTAGEDist(), nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		lk := dp.Lookup(uint64(0x1000+(i%64)*4), hist)
		dp.Update(&lk, uint16(i%32))
	}
}

// BenchmarkFIFOHistory measures the commit-side pairing probe.
func BenchmarkFIFOHistory(b *testing.B) {
	h := rsep.NewFIFOHistory(128, 14, 10)
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		hash := rsep.FoldHash(uint64(i%97), 14)
		h.Find(hash, uint64(i), uint16(i%64))
		h.Push(hash, uint64(i))
	}
}

// BenchmarkFoldHash measures the result-hash function.
func BenchmarkFoldHash(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N*microBatch; i++ {
		acc ^= rsep.FoldHash(uint64(i)*0x9e3779b97f4a7c15, 14)
	}
	_ = acc
}

// BenchmarkDVTAGE measures value-predictor lookup+update latency.
func BenchmarkDVTAGE(b *testing.B) {
	vp := vpred.New(vpred.BeBoP(), nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(vp.HistoryLengths(), vp.HistoryWidths())
	b.ResetTimer()
	for i := 0; i < b.N*microBatch; i++ {
		lk := vp.Lookup(uint64(0x2000+(i%64)*4), hist)
		vp.Update(&lk, uint64(i))
	}
}

// BenchmarkBranchPredictor measures the front-end branch predictor alone
// (TAGE direction, BTB and RAS): a prediction and its resolution per call,
// over a gobmk branch stream, with the mispredicted flag the pipeline's
// trace-driven check would raise.
func BenchmarkBranchPredictor(b *testing.B) {
	bp := branchBench()
	b.ResetTimer()
	for range b.N {
		bp(microBatch)
	}
}

// branchBench returns a function that predicts and resolves the next n
// branches of a recorded gobmk stream, wrapping around at its end. Kept in a
// helper so the bench body stays allocation-free.
func branchBench() func(int) {
	gen := workload.New(workload.MustByName("gobmk"), 3)
	var stream []uarch.Inst
	for len(stream) < 64*microBatch {
		if in, _ := gen.Next(); in.IsBranch() {
			stream = append(stream, in)
		}
	}
	bp := branch.New(rand.New(rand.NewSource(3)))
	var pr branch.Prediction
	next := 0
	run := func(n int) {
		for range n {
			in := &stream[next]
			bp.PredictInto(in, &pr)
			mispredicted := in.BrKind == uarch.BrCond && pr.Taken != in.Taken ||
				in.Taken && pr.TargetHit && pr.Target != in.Target
			bp.Resolve(in, &pr, mispredicted)
			if next++; next == len(stream) {
				next = 0
			}
		}
	}
	run(len(stream)) // warm: train the tables on the whole stream once
	return run
}

// TestBranchPredictorBenchAllocations pins BenchmarkBranchPredictor's timed
// region at zero steady-state allocations, the same property the committed
// benchmark record is expected to show.
func TestBranchPredictorBenchAllocations(t *testing.T) {
	bp := branchBench()
	allocs := testing.AllocsPerRun(3, func() { bp(microBatch) })
	if allocs > 0 {
		t.Errorf("branch predictor bench allocated %.1f allocs per %d branches; want 0", allocs, microBatch)
	}
}
