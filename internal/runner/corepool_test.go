package runner

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestCorePoolReusesAcrossMechanisms pins component-granular core reuse: a
// sweep of more distinct mechanism configs than the pool keeps cores, run
// one job at a time on the Table I machine, must never pay for a whole core
// again. Beyond what a job on an exact-match core allocates (its workload),
// a job may allocate the tables of the mechanism it switches to, but not a
// quarter of a pipeline.New.
func TestCorePoolReusesAcrossMechanisms(t *testing.T) {
	base := config.TableI()
	src := workload.New(workload.MustByName("hmmer"), 1)
	before := totalAlloc()
	pipeline.New(base, src)
	budget := (totalAlloc() - before) / 4

	cfgs := []*config.Config{base, base.WithVP(vpred.BeBoP())}
	for entries := 8; len(cfgs) < corePoolMax+4; entries += 4 {
		rc := rsep.Realistic()
		rc.ISRBEntries = entries
		cfgs = append(cfgs, base.WithRSEP(rc))
	}
	job := func(cfg *config.Config) uint64 {
		before := totalAlloc()
		if _, err := Simulate(context.Background(), Job{Bench: "hmmer", Config: cfg, Seed: 1,
			Warmup: 2_000, Measure: 5_000}); err != nil {
			t.Fatal(err)
		}
		return totalAlloc() - before
	}
	job(base)          // warm-up: the pool now hands out a Table I core first
	floor := job(base) // an exact match: the job's workload alone
	for i, cfg := range cfgs {
		if n := job(cfg); n > floor+budget {
			t.Errorf("job %d allocated %d bytes, want at most %d (an exact-match job) + %d (a quarter of a pipeline.New)",
				i, n, floor, budget)
		}
	}
}

// TestCorePoolDropsIdleCores: the pool keeps an idle core for coreIdleTTL
// and no longer, and its trim timer is armed exactly while a core is idle.
func TestCorePoolDropsIdleCores(t *testing.T) {
	corePool.mu.Lock()
	corePool.idle = nil // drop what earlier tests left idle
	if corePool.trim != nil {
		corePool.trim.Stop()
		corePool.trim = nil
	}
	corePool.mu.Unlock()
	cfg := config.TableI()
	src := workload.New(workload.MustByName("mcf"), 1)
	stale := coreFor(cfg, src)
	core := coreFor(cfg, src)
	putCore(stale)
	putCore(core)

	corePool.mu.Lock()
	if corePool.trim == nil {
		t.Error("no trim timer armed with two idle cores")
	}
	corePool.idle[0].since = time.Now().Add(-coreIdleTTL) // stale has idled its TTL out
	corePool.mu.Unlock()
	trimCores()
	corePool.mu.Lock()
	if len(corePool.idle) != 1 || corePool.idle[0] != core || corePool.trim == nil {
		t.Errorf("after a trim: %d idle cores (want only the fresh one), timer armed %v", len(corePool.idle), corePool.trim != nil)
	}
	corePool.idle[0].since = time.Now().Add(-coreIdleTTL)
	corePool.mu.Unlock()
	trimCores()
	corePool.mu.Lock()
	defer corePool.mu.Unlock()
	if len(corePool.idle) != 0 || corePool.trim != nil {
		t.Errorf("after the last core's TTL: %d idle cores, timer armed %v; want none and no timer", len(corePool.idle), corePool.trim != nil)
	}
}
