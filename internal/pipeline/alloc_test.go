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

// TestWarmWorkerJobAllocations caps the allocations of a *whole job* on a
// warm worker: build a new workload generator, reset the core in place and
// simulate 50k instructions. The generator's functional memory (slab-backed
// pages) and a handful of compile-time structures are all that remains — the
// core itself contributes nothing. The bound is ~20x below the committed
// cold-job figure (10,757 allocs) this round started from; it guards the
// whole reuse path against regressing back to per-job construction.
func TestWarmWorkerJobAllocations(t *testing.T) {
	cfg := config.TableI()
	prof := workload.MustByName("mcf")
	const insts = 50_000
	core := New(cfg, workload.New(prof, 42))
	core.Run(insts)
	if !core.ResetFor(cfg, workload.New(prof, 42)) {
		t.Fatal("ResetFor refused the identical config")
	}
	core.Run(insts) // one full warm cycle so every retained buffer has grown
	avg := testing.AllocsPerRun(3, func() {
		if !core.ResetFor(cfg, workload.New(prof, 42)) {
			t.Fatal("ResetFor refused the identical config")
		}
		core.Run(insts)
	})
	t.Logf("warm whole-job allocations: %.0f", avg)
	if avg > 500 {
		t.Errorf("warm whole-job allocations = %.0f, want <= 500", avg)
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
