package pipeline

import (
	"bytes"
	"runtime"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// TestSteadyStateAllocations pins the hot loop's allocation behaviour: once
// the arena, wheels and queues have grown to the inflight window, Core.Run
// must allocate (almost) nothing per committed instruction. The residual
// budget covers genuinely cold work — simulated-memory pages for freshly
// touched footprint and the occasional capacity double of a reused slice —
// none of which scales with instruction count. A per-cycle allocation (one
// map bucket, one event slice, one dyn) would exceed the bound by orders of
// magnitude.
func TestSteadyStateAllocations(t *testing.T) {
	cfgs := map[string]*config.Config{
		"baseline": config.TableI(),
		"rsep":     config.TableI().WithRSEP(rsep.Realistic()),
		// The paper's headline configuration: the whole prediction stack
		// (TAGE distance predictor, unbounded FIFO history, HRF, zero
		// predictor, D-VTAGE) must hold the same budget so it cannot
		// silently regress back to heap allocation.
		"rsep-vp": config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			core := New(cfg, workload.New(workload.MustByName("mcf"), 42))
			core.Run(100_000) // reach steady state
			const chunk = 20_000
			avg := testing.AllocsPerRun(5, func() { core.Run(chunk) })
			perInst := avg / chunk
			t.Logf("%s: %.1f allocs per %d-inst run (%.5f/inst)", name, avg, chunk, perInst)
			if perInst > 0.02 {
				t.Errorf("steady-state allocations = %.4f per committed instruction, want ~0 (<= 0.02)", perInst)
			}
		})
	}
}

// TestWarmWorkerJobAllocations caps what a *whole job* allocates on a warm
// worker: rewind the workload generator in place (Gen.Reset), reset the core
// in place and simulate 50k instructions, as the runner's generator and core
// pools do. Nothing remains: the generator compiles its kernels into the
// storage of the previous job's, and the core, the functional-memory pages
// and the pointer rings are all kept (0 allocations for mcf; the bounds
// leave room for the runtime's own). Kernels compiled afresh (about 60
// allocations and 11 KiB for mcf), a fresh generator per job (1.5 MiB) or
// any table rebuilt per job would exceed a bound.
func TestWarmWorkerJobAllocations(t *testing.T) {
	cfg := config.TableI()
	prof := workload.MustByName("mcf")
	const insts = 50_000
	gen := workload.New(prof, 42)
	core := New(cfg, gen)
	job := func() {
		gen.Reset(prof, 42)
		if !core.ResetFor(cfg, gen) {
			t.Fatal("ResetFor refused the identical config")
		}
		core.Run(insts)
	}
	core.Run(insts)
	job() // one full warm cycle so every retained buffer has grown

	const jobs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range jobs {
		job()
	}
	runtime.ReadMemStats(&after)
	mallocs := (after.Mallocs - before.Mallocs) / jobs
	size := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("warm whole job: %d allocations, %d bytes", mallocs, size)
	if mallocs > 10 {
		t.Errorf("warm whole-job allocations = %d, want <= 10", mallocs)
	}
	if size > 2<<10 {
		t.Errorf("warm whole job allocates %d bytes, want <= 2 KiB", size)
	}
}

// TestRSEPSweepSwitchAllocations: a warm core stepped through Fig. 6's five
// RSEP configs (validation ideal, lock-FU and any-FU, then sampling at
// start_train 15 and 63) keeps one distance predictor, because the configs
// differ only in how its tables are used, never in their size. One ideal
// TAGE distance predictor is 124 KB of tables; the bound on a whole pass of
// five ResetFor calls is far below it.
func TestRSEPSweepSwitchAllocations(t *testing.T) {
	ideal := rsep.Ideal()
	lockFU, anyFU := ideal, ideal
	lockFU.Validation = rsep.ValidateIssue2xSameFU
	anyFU.Validation = rsep.ValidateIssue2xAnyFU
	samp15, samp63 := anyFU, anyFU
	samp15.Sampling, samp15.TAGE.StartTrainThreshold = true, 15
	samp63.Sampling, samp63.TAGE.StartTrainThreshold = true, 63
	base := config.TableI()
	cfgs := []*config.Config{
		base.WithRSEP(ideal), base.WithRSEP(lockFU), base.WithRSEP(anyFU),
		base.WithRSEP(samp15), base.WithRSEP(samp63),
	}
	prof := workload.MustByName("mcf")
	gen := workload.New(prof, 42)
	core := New(cfgs[0], gen)
	pass := func() (size uint64) {
		var before, after runtime.MemStats
		for _, cfg := range cfgs {
			gen.Reset(prof, 42)
			runtime.ReadMemStats(&before)
			core.ResetFor(cfg, gen)
			runtime.ReadMemStats(&after)
			size += after.TotalAlloc - before.TotalAlloc
			core.Run(10_000)
		}
		return size
	}
	pass() // grow every retained buffer
	size := pass()
	t.Logf("five RSEP config switches allocate %d bytes", size)
	if size > 8<<10 {
		t.Errorf("five RSEP config switches allocate %d bytes, want <= 8 KiB (one ideal TAGE is 124 KB)", size)
	}
}

// TestCheckpointIntoGrownBufferAllocations pins what a slice boundary costs
// the heap when the sliced runner encodes into a buffer kept from the
// previous boundary: the checkpoint writer and nothing the size of the
// state. A 64 KiB staging buffer, or a copy of any table, would exceed the
// bound many times over.
func TestCheckpointIntoGrownBufferAllocations(t *testing.T) {
	cfg := config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())
	core := New(cfg, workload.New(workload.MustByName("mcf"), 42))
	core.Run(20_000)
	var buf bytes.Buffer
	if err := core.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		buf.Reset()
		if err := core.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCkpt := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("checkpoint of %d bytes allocates %d bytes", buf.Len(), perCkpt)
	if perCkpt >= 8<<10 {
		t.Errorf("Checkpoint into a grown buffer allocates %d bytes, want < 8 KiB", perCkpt)
	}
}
