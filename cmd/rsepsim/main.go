// Command rsepsim runs a single benchmark under one configuration and prints
// a detailed statistics report — the quick way to inspect one simulation.
// The run is submitted to internal/runner, so Ctrl-C aborts it promptly and
// a repeated invocation is served from the persistent result store
// (-cache-dir / -cache; -v shows whether this run was a hit).
//
// Usage:
//
//	rsepsim -bench mcf -mech rsep -insts 500000
//	rsepsim -bench hmmer -mech rsep-realistic,vp -warmup 200000
//	rsepsim -bench astar -json          # machine-readable stats
//	rsepsim -bench mcf -cache off       # always re-simulate
//	rsepsim -bench mcf -slices 10       # checkpoint-chained, resumable run
//	rsepsim -bench mcf -server http://localhost:8321   # run on a rsepd daemon
//	rsepsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"rsepsim/internal/cliutil"
	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/prof"
	"rsepsim/internal/rsep"
	"rsepsim/internal/runner"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

func main() {
	var shared cliutil.Flags
	shared.Register(flag.CommandLine)
	var (
		bench   = flag.String("bench", "mcf", "benchmark name")
		mech    = flag.String("mech", "", "mechanisms: comma list of zeropred, moveelim, rsep, rsep-realistic, vp, oracle")
		insts   = flag.Uint64("insts", 300_000, "instructions to measure")
		warmup  = flag.Uint64("warmup", 100_000, "warmup instructions")
		seed    = flag.Int64("seed", 42, "workload seed")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		verbose = flag.Bool("v", false, "report cache status on stderr")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsepsim:", err)
		os.Exit(2)
	}
	defer stopProf()
	// fail flushes the profiles before exiting (os.Exit skips defers), so an
	// interrupted profiled run still yields a usable cpu.prof.
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "rsepsim:", err)
		stopProf()
		os.Exit(code)
	}

	cfg := config.TableI()
	for _, m := range strings.Split(*mech, ",") {
		switch strings.TrimSpace(m) {
		case "":
		case "zeropred":
			cfg = cfg.WithZeroPred()
		case "moveelim":
			cfg = cfg.WithMoveElim()
		case "rsep":
			cfg = cfg.WithRSEP(rsep.Ideal())
		case "rsep-realistic":
			cfg = cfg.WithRSEP(rsep.Realistic())
		case "vp":
			cfg = cfg.WithVP(vpred.BeBoP())
		case "oracle":
			cfg = cfg.WithOracle()
		default:
			fmt.Fprintf(os.Stderr, "rsepsim: unknown mechanism %q\n", m)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The run goes through a BatchRunner either way: the in-process
	// scheduler, or a client for the remote daemon — the submission below
	// cannot tell.
	backend, err := shared.Backend("rsepsim")
	if err != nil {
		fail(2, err)
	}
	br := backend.Runner(1)
	res, err := br.RunBatch(ctx, runner.Batch{Jobs: []runner.Job{{
		Bench:   *bench,
		Config:  cfg,
		Seed:    *seed,
		Warmup:  *warmup,
		Measure: *insts,
		Slices:  uint32(shared.Slices),
	}}})
	if err != nil {
		fail(1, err)
	}
	st := res[0].Stats
	if *verbose {
		c := backend.Counters()
		where := shared.Server
		if where == "" {
			where = fmt.Sprintf("%s, mode %s", shared.CacheDir, shared.CacheMode)
		}
		fmt.Fprintf(os.Stderr, "rsepsim: cache %d hits / %d misses / %d stale (%s)\n",
			c.Hits, c.Misses, c.Stale, where)
	}
	backend.WarnWrites("rsepsim")
	if shared.JSON {
		if err := st.EncodeJSON(os.Stdout); err != nil {
			fail(1, err)
		}
		return
	}
	report(*bench, st)
}

func report(name string, st *metrics.Stats) {
	fmt.Printf("benchmark        %s\n", name)
	fmt.Printf("committed        %d insts in %d cycles (IPC %.3f)\n", st.Committed, st.Cycles, st.IPC())
	fmt.Printf("mix              %.1f%% loads, %.1f%% stores, %.1f%% branches\n",
		100*st.Frac(st.CommittedLoads), 100*st.Frac(st.CommittedStores), 100*st.Frac(st.CommittedBranches))
	fmt.Printf("branches         %d mispredicts (%.2f/kinst)\n",
		st.BranchMispredicts, 1000*st.Frac(st.BranchMispredicts))
	fmt.Printf("memory           L1D miss %.1f%%, L2 misses %d, L3 misses %d, DRAM reads %d (avg %.0f cyc)\n",
		100*float64(st.L1DMisses)/float64(st.L1DAccesses+1), st.L2Misses, st.L3Misses, st.DRAMReads, st.AvgDRAMLatency)
	fmt.Printf("coverage         zeroIdiom %.1f%%  moveElim %.1f%%  zeroPred %.1f%%  distPred %.1f%% (loads %.1f%%)  valuePred %.1f%%\n",
		100*st.Frac(st.ZeroIdiomElim), 100*st.Frac(st.MoveElim), 100*st.Frac(st.ZeroPred),
		100*st.Frac(st.DistPred), 100*st.Frac(st.DistPredLoad), 100*st.Frac(st.ValuePred))
	fmt.Printf("speculation      distMiss %d  zeroMiss %d  vpMiss %d  memOrder %d  squashes %d  valUops %d\n",
		st.DistMispredicts, st.ZeroMispredicts, st.ValueMispredicts, st.MemOrderSquashes, st.Squashes, st.ValidationUops)
	if st.OracleZeroLoad+st.OracleZeroOther+st.OraclePRFLoad+st.OraclePRFOther > 0 {
		fmt.Printf("oracle (fig 1)   zero: %.1f%% loads + %.1f%% other; in-PRF: %.1f%% loads + %.1f%% other\n",
			100*st.Frac(st.OracleZeroLoad), 100*st.Frac(st.OracleZeroOther),
			100*st.Frac(st.OraclePRFLoad), 100*st.Frac(st.OraclePRFOther))
	}
}
