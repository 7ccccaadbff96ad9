// Command perfbench is the rsepsim repository benchmark. It runs one of
// three closed-loop workloads for a fixed time, checks every job's output
// against a reference, and prints its metrics: the end-to-end ones with
// --trace 0, the per-layer ones (from a traced run) with --trace 1. The last
// line of standard output is one JSON object; a human-readable table goes to
// standard error. See README.md.
//
//	go build -o perfbench . && ./perfbench --workload figs-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"rsepsim/internal/config"
)

const (
	// defaultSeed is the workload seed (experiments BaseSeed) whose output
	// digests recordedDigests pins; heldOutSeed is kept out of tuning so a
	// claim made on the default seed can be re-checked on it.
	defaultSeed = 1
	heldOutSeed = 7

	// parallelism is the scheduler's worker count: the benchmark host has
	// two CPUs.
	parallelism = 2

	setupRepeats = 3 // set-ups per run; setup_s is their median
	minPasses    = 3 // measured passes per run, at least
	// workdir holds the throwaway stores and span files, under the build
	// directory the benchmark's .gitignore entry covers.
	workdir = ".bench_build/perfbench"

	// minLatencySamples is the smallest job-latency sample that has ten
	// samples beyond its 90th percentile, as job_p90_ms needs.
	minLatencySamples = 100
)

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup prepares the workload for its passes; the harness times it and
	// runs it setupRepeats times. Only the last set-up's state is used.
	setup() error
	// geometries lists the configurations whose cores the workload runs, in
	// first-submission order, for resetCorePool.
	geometries() []*config.Config
	// reference returns the expected per-job hashes of a pass in submission
	// order, or nil when the first pass is the reference.
	reference() []jobHash
	// shared returns the indices, within a pass, of the jobs on the shared
	// benchmark whose digest figs-cold and figs-warm must agree on.
	shared() []int
	// pass runs one measured pass; tc is nil for an untraced pass.
	pass(tc *tracing) (*passOut, error)
	// layers adds the per-layer metrics that come from outside the passes:
	// component replays and simulated-model statistics.
	layers(out map[string]float64) error
	close()
}

// passOut is what one pass reports.
type passOut struct {
	wall      time.Duration
	hashes    []jobHash // per job slot, in submission order
	bad       []bool    // per job slot: errored or broke a workload assertion
	latencies []float64 // ms from batch submission to each job's result
	simInsts  uint64    // simulated instructions, warmup plus measured
	counts    map[string]float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "figs-cold", "workload: figs-cold, figs-warm or daemon-sliced")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (experiments BaseSeed); default %d, held out %d", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		return 2
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(dir)

	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	h := &harness{
		name: *name, seed: *seed, w: w, stderr: stderr,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		spans:   filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	res, err := h.measure()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	h.report(res)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.out.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's printed outcome.
type result struct {
	out   output
	all   map[string]float64 // every metric computed, printed or not
	lat   []float64          // job latencies (ms) of the untraced passes
	notes []string
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
