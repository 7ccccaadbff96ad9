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
// pools do. The generator's compiled kernels are all that remains (about 60
// allocations and 11 KiB for mcf); the core, the functional-memory pages and
// the pointer rings contribute nothing. A fresh generator per job (1.5 MiB
// for mcf) or any table rebuilt per job would exceed the byte bound many
// times over.
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
	if mallocs > 100 {
		t.Errorf("warm whole-job allocations = %d, want <= 100", mallocs)
	}
	if size > 32<<10 {
		t.Errorf("warm whole job allocates %d bytes, want <= 32 KiB", size)
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
