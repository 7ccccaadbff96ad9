package rsepsim

// One benchmark per reproduced table/figure (DESIGN.md §4). Each iteration
// performs the figure's full sweep at reduced scale — the -bench harness is
// the machine-checked form of "the code that regenerates the evaluation".
// Micro-benchmarks for the hot components follow.

import (
	"context"
	"math/rand"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
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
// exactly as the runner's core pool does between jobs. The gap between this
// and BenchmarkPipelineBaseline is the per-job construction tax the pool
// eliminates; allocs/op here is essentially the workload generator alone.
func BenchmarkPipelineWarmWorker(b *testing.B) {
	const insts = 50_000
	cfg := config.TableI()
	prof := workload.MustByName("mcf")
	core := pipeline.New(cfg, workload.New(prof, 42))
	core.Run(insts) // warm: grow arena, wheels, queues to the job's footprint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.ResetFor(cfg, workload.New(prof, 42)) {
			b.Fatal("ResetFor refused the identical config")
		}
		core.Run(insts)
	}
	b.ReportMetric(float64(insts), "insts/op")
}

// BenchmarkPipelineMechanismSwitch measures a worker whose jobs alternate
// mechanisms, as in the sliced daemon's baseline/RSEP/RSEP+VP rotation: one
// core is reset in place (pipeline.Core.ResetFor) for a baseline, an RSEP
// and an RSEP+VP job of 50k instructions each per op. B/op is the three
// workloads plus the mechanism tables the switches rebuild — RSEP's when
// RSEP returns after the baseline job, D-VTAGE's when VP joins — never a
// whole core.
func BenchmarkPipelineMechanismSwitch(b *testing.B) {
	const insts = 50_000
	base := config.TableI()
	cfgs := []*config.Config{
		base,
		base.WithRSEP(rsep.Ideal()),
		base.WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()),
	}
	prof := workload.MustByName("mcf")
	core := pipeline.New(cfgs[len(cfgs)-1], workload.New(prof, 42))
	core.Run(insts) // warm: grow arena, wheels, queues to the job's footprint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			core.ResetFor(cfg, workload.New(prof, 42))
			core.Run(insts)
		}
	}
	b.ReportMetric(float64(len(cfgs)*insts), "insts/op")
}

// BenchmarkWorkloadGen measures trace generation throughput alone.
func BenchmarkWorkloadGen(b *testing.B) {
	prof := workload.MustByName("xalancbmk")
	g := workload.New(prof, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkDistancePredictor measures TAGE distance lookup+update latency.
func BenchmarkDistancePredictor(b *testing.B) {
	dp := rsep.NewTAGEDist(rsep.RealisticTAGEDist(), nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(dp.HistoryLengths(), dp.HistoryWidths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk := dp.Lookup(uint64(0x1000+(i%64)*4), hist)
		dp.Update(&lk, uint16(i%32))
	}
}

// BenchmarkFIFOHistory measures the commit-side pairing probe.
func BenchmarkFIFOHistory(b *testing.B) {
	h := rsep.NewFIFOHistory(128, 14, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hash := rsep.FoldHash(uint64(i%97), 14)
		h.Find(hash, uint64(i), uint16(i%64))
		h.Push(hash, uint64(i))
	}
}

// BenchmarkFoldHash measures the result-hash function.
func BenchmarkFoldHash(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N; i++ {
		acc ^= rsep.FoldHash(uint64(i)*0x9e3779b97f4a7c15, 14)
	}
	_ = acc
}

// BenchmarkDVTAGE measures value-predictor lookup+update latency.
func BenchmarkDVTAGE(b *testing.B) {
	vp := vpred.New(vpred.BeBoP(), nil, rand.New(rand.NewSource(1)))
	hist := predictor.NewGlobalHistory(vp.HistoryLengths(), vp.HistoryWidths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk := vp.Lookup(uint64(0x2000+(i%64)*4), hist)
		vp.Update(&lk, uint64(i))
	}
}

// BenchmarkBranchPredictor measures the front-end TAGE.
func BenchmarkBranchPredictor(b *testing.B) {
	bp := pipelineBranchBench()
	b.ResetTimer()
	bp(b.N)
}

func pipelineBranchBench() func(int) {
	// Kept in a helper so the bench body stays allocation-free.
	core := pipeline.New(config.TableI(), workload.New(workload.MustByName("gobmk"), 3))
	// Warm to the steady-state footprint first: with tiny -benchtime iteration
	// counts the arena/ring/queue growth of the first few thousand committed
	// instructions otherwise lands inside the timed region and shows up as
	// per-op allocations in BENCH_PIPELINE.json.
	core.Run(50_000)
	return func(n int) {
		core.Run(uint64(n))
	}
}

// TestBranchPredictorBenchAllocations pins BenchmarkBranchPredictor's timed
// region at zero steady-state allocations, the same property the committed
// benchmark record is expected to show.
func TestBranchPredictorBenchAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bp := pipelineBranchBench()
	const insts = 5_000
	allocs := testing.AllocsPerRun(3, func() { bp(insts) })
	if allocs > 0 {
		t.Errorf("branch predictor bench allocated %.1f allocs per %d insts; want 0", allocs, insts)
	}
}
