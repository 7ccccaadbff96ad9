// Quickstart: simulate one benchmark on the Table I core with and without
// RSEP and print the speedup — the smallest end-to-end use of the library.
// Both runs are submitted as jobs to the shared simulation runner, which
// executes them concurrently and returns results in submission order.
package main

import (
	"context"
	"fmt"
	"log"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
)

func main() {
	const bench = "hmmer"
	const warm, measure = 100_000, 200_000

	job := func(cfg *config.Config) runner.Job {
		return runner.Job{Bench: bench, Config: cfg, Seed: 42, Warmup: warm, Measure: measure}
	}
	sched := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 2})
	res, err := sched.RunBatch(context.Background(), runner.Batch{Jobs: []runner.Job{
		job(config.TableI()),
		job(config.TableI().WithRSEP(rsep.Realistic())),
	}})
	if err != nil {
		log.Fatal(err)
	}
	base, with := res[0].Stats.IPC(), res[1].Stats.IPC()

	fmt.Printf("%s on the Table I core (%d measured instructions)\n", bench, measure)
	fmt.Printf("  baseline IPC:        %.3f\n", base)
	fmt.Printf("  with realistic RSEP: %.3f  (%+.1f%%)\n", with, 100*(with/base-1))
}
