// Command experiments regenerates the paper's tables and figures. Each
// figure of the evaluation section (and each ablation discussed in its text)
// has a runner; see DESIGN.md for the experiment index.
//
// All figures share one result store, so `-fig all` simulates each (bench,
// config, seed) combination exactly once even when figures overlap (the
// baseline and ideal-RSEP configurations appear in most of them). By default
// the store is persistent (-cache-dir, ~/.cache/rsepsim), so a rerun — or a
// run killed mid-sweep and restarted — only simulates what is missing; each
// figure prints its hit/miss/stale counts on stderr. Ctrl-C cancels the
// in-flight simulations promptly.
//
// Usage:
//
//	experiments -fig 4                  # Figure 4 (speedups)
//	experiments -fig all                # everything, incrementally
//	experiments -fig 7 -bench mcf,hmmer -segments 4 -measure 400000
//	experiments -fig 1 -csv             # machine-readable output
//	experiments -fig 5 -json            # one JSON object per table
//	experiments -fig all -v             # live per-job progress on stderr
//	experiments -fig all -cache off     # in-memory cache only
//	experiments -fig 6 -cache ro        # read shared results, write nothing
//	experiments -fig all -cache-warm    # preload the memory tier from disk
//	experiments -fig 6 -server http://localhost:8321   # run on a rsepd daemon
//
// With -server, every batch is submitted to a remote rsepd daemon instead of
// the in-process scheduler; the daemon's store absorbs the jobs (the tables are
// byte-identical either way), and the local -cache flags are unused.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rsepsim/internal/cliutil"
	"rsepsim/internal/experiments"
	"rsepsim/internal/metrics"
	"rsepsim/internal/prof"
	"rsepsim/internal/runner"
)

func main() {
	var shared cliutil.Flags
	shared.Register(flag.CommandLine)
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1, 4, 5, 6, 7, hist, isrb, hash, comparators, gshare, table1, storage, all")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 29)")
		segments = flag.Int("segments", 0, "segments (checkpoints) per benchmark")
		warmup   = flag.Uint64("warmup", 0, "warmup instructions per segment")
		measure  = flag.Uint64("measure", 0, "measured instructions per segment")
		seed     = flag.Int64("seed", 0, "base random seed")
		par      = flag.Int("par", 0, "parallel simulations (default NumCPU)")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		verbose  = flag.Bool("v", false, "report per-job progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	defer stopProf()
	// fail flushes the profiles before exiting (os.Exit skips defers), so an
	// interrupted profiled sweep still yields a usable cpu.prof.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		stopProf()
		os.Exit(code)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiments.Options{
		Segments:    *segments,
		Warmup:      *warmup,
		Measure:     *measure,
		BaseSeed:    *seed,
		Parallelism: *par,
		Slices:      uint32(shared.Slices),
	}
	// The backend reports hit/miss/stale for the per-figure stderr line
	// either way: the mounted store locally, the client's accumulated
	// per-batch deltas remotely.
	backend, err := shared.Backend("experiments")
	if err != nil {
		fail(2, "%v", err)
	}
	if backend.Client != nil {
		opt.Runner = backend.Client
	} else {
		opt.Store = backend.Store
	}
	counters := backend
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	if *verbose {
		opt.Progress = func(p runner.Progress) {
			tag := ""
			if p.CacheHit {
				tag = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "\r[%d/%d] %s%s\033[K", p.Done, p.Total, p.Job.Bench, tag)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	type figRunner struct {
		name string
		run  func(context.Context, experiments.Options) (*metrics.Table, error)
	}
	static := map[string]func() *metrics.Table{
		"table1":  experiments.TableIReport,
		"storage": experiments.StorageReport,
	}
	runners := []figRunner{
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

	emit := func(t *metrics.Table) {
		switch {
		case shared.JSON:
			if err := t.JSON(os.Stdout); err != nil {
				fail(1, "%v", err)
			}
		case *csv:
			t.CSV(os.Stdout)
			fmt.Println()
		default:
			t.Fprint(os.Stdout)
			fmt.Println()
		}
	}

	want := *fig
	ran := false
	if f, ok := static[want]; ok {
		emit(f())
		return
	}
	if want == "all" {
		emit(experiments.TableIReport())
		emit(experiments.StorageReport())
	}
	for _, r := range runners {
		if want != "all" && want != r.name {
			continue
		}
		ran = true
		start := time.Now()
		before := counters.Counters()
		t, err := r.run(ctx, opt)
		if err != nil {
			fail(1, "figure %s: %v", r.name, err)
		}
		emit(t)
		c := counters.Counters().Sub(before)
		fmt.Fprintf(os.Stderr, "[fig %s: %.1fs, cache %d hits / %d misses / %d stale]\n",
			r.name, time.Since(start).Seconds(), c.Hits, c.Misses, c.Stale)
	}
	if !ran && want != "all" {
		fail(2, "unknown figure %q", want)
	}
	backend.WarnWrites("experiments")
}
