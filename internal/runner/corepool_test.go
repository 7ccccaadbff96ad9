package runner

import (
	"context"
	"runtime"
	"testing"

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
