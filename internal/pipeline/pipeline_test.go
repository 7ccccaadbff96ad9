package pipeline

import (
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/trace"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

func buildAndRun(t *testing.T, bench string, cfg *config.Config, warm, n uint64) *Core {
	t.Helper()
	prof := workload.MustByName(bench)
	core := New(cfg, workload.New(prof, 11))
	core.Run(warm)
	core.ResetStats()
	if got := core.Run(n); got < n {
		t.Fatalf("committed %d < %d", got, n)
	}
	return core
}

func TestInvariantsAcrossConfigs(t *testing.T) {
	cfgs := map[string]*config.Config{
		"baseline":       config.TableI(),
		"zeropred":       config.TableI().WithZeroPred(),
		"moveelim":       config.TableI().WithMoveElim(),
		"rsep-ideal":     config.TableI().WithRSEP(rsep.Ideal()),
		"rsep-realistic": config.TableI().WithRSEP(rsep.Realistic()),
		"vp":             config.TableI().WithVP(vpred.BeBoP()),
		"rsep+vp":        config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP()),
	}
	for name, cfg := range cfgs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			// xalancbmk exercises moves, sharing and long distances.
			core := buildAndRun(t, "xalancbmk", cfg, 10_000, 40_000)
			if err := core.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
		})
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := config.TableI().WithRSEP(rsep.Realistic())
		core := New(cfg, workload.New(workload.MustByName("mcf"), 9))
		core.Run(60_000)
		st := core.Stats()
		return st.Cycles, st.DistPred
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
}

func TestSquashRecovery(t *testing.T) {
	// The realistic RSEP config on gobmk generates noisy distance
	// training and therefore real mispredict squashes; the machine must
	// keep its invariants through them.
	cfg := config.TableI().WithRSEP(rsep.Realistic()).WithVP(vpred.BeBoP())
	core := buildAndRun(t, "gobmk", cfg, 20_000, 80_000)
	if err := core.CheckInvariants(); err != nil {
		t.Fatalf("invariants after squashes: %v", err)
	}
}

func TestRSEPAccuracyGate(t *testing.T) {
	// §VI-B: prediction accuracy is always greater than 99.5%.
	for _, bench := range []string{"mcf", "hmmer", "libquantum", "xalancbmk", "dealII"} {
		cfg := config.TableI().WithRSEP(rsep.Realistic())
		core := buildAndRun(t, bench, cfg, 30_000, 100_000)
		st := core.Stats()
		if used := st.DistPred + st.ZeroPred; used > 1000 {
			if acc := st.DistAccuracy(); acc < 0.995 {
				t.Errorf("%s: accuracy %.4f < 99.5%%", bench, acc)
			}
		}
	}
}

func TestRSEPSharesRegisters(t *testing.T) {
	cfg := config.TableI().WithRSEP(rsep.Ideal())
	core := buildAndRun(t, "hmmer", cfg, 20_000, 60_000)
	st := core.Stats()
	if st.DistPred == 0 {
		t.Fatal("no distance predictions on hmmer")
	}
	if st.DistMispredicts > st.DistPred/100 {
		t.Fatalf("mispredicts %d too high for %d predictions", st.DistMispredicts, st.DistPred)
	}
}

func TestZeroIdiomElimination(t *testing.T) {
	// gcc's fold kernel contains explicit zero idioms.
	core := buildAndRun(t, "gcc", config.TableI(), 10_000, 60_000)
	if core.Stats().ZeroIdiomElim == 0 {
		t.Fatal("zero idioms not eliminated under the Table I baseline")
	}
}

func TestMoveElimination(t *testing.T) {
	core := buildAndRun(t, "xalancbmk", config.TableI().WithMoveElim(), 10_000, 60_000)
	if core.Stats().MoveElim == 0 {
		t.Fatal("no moves eliminated on the move-rich benchmark")
	}
	if err := core.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestValuePredictionSpeedsUpStrides(t *testing.T) {
	base := buildAndRun(t, "wrf", config.TableI(), 40_000, 100_000)
	vp := buildAndRun(t, "wrf", config.TableI().WithVP(vpred.BeBoP()), 40_000, 100_000)
	if vp.Stats().IPC() <= base.Stats().IPC() {
		t.Fatalf("VP did not speed up the stride benchmark: %.3f vs %.3f",
			vp.Stats().IPC(), base.Stats().IPC())
	}
}

func TestRSEPSpeedsUpEqualityBenchmarks(t *testing.T) {
	for _, bench := range []string{"mcf", "hmmer", "dealII"} {
		base := buildAndRun(t, bench, config.TableI(), 40_000, 100_000)
		r := buildAndRun(t, bench, config.TableI().WithRSEP(rsep.Ideal()), 40_000, 100_000)
		if r.Stats().IPC() <= base.Stats().IPC() {
			t.Errorf("%s: RSEP %.3f <= baseline %.3f", bench, r.Stats().IPC(), base.Stats().IPC())
		}
	}
}

func TestOracleProbe(t *testing.T) {
	core := buildAndRun(t, "zeusmp", config.TableI().WithOracle(), 10_000, 50_000)
	st := core.Stats()
	zeros := st.Frac(st.OracleZeroLoad + st.OracleZeroOther)
	if zeros < 0.08 {
		t.Fatalf("zeusmp oracle zero ratio %.3f, want the Figure 1 outlier level", zeros)
	}
}

func TestOraclePRFReuse(t *testing.T) {
	// hmmer's periodic score tables produce dense genuine value reuse.
	core := buildAndRun(t, "hmmer", config.TableI().WithOracle(), 10_000, 50_000)
	st := core.Stats()
	if reuse := st.Frac(st.OraclePRFLoad + st.OraclePRFOther); reuse < 0.05 {
		t.Fatalf("hmmer PRF-reuse ratio %.3f, want substantial", reuse)
	}
}

func TestCommitGroupHistogram(t *testing.T) {
	core := buildAndRun(t, "lbm", config.TableI(), 20_000, 60_000)
	st := core.Stats()
	var total, wide uint64
	for i, n := range st.CommitEligibleHist {
		total += n
		if i == 8 {
			wide = n
		}
	}
	if total == 0 {
		t.Fatal("no commit groups recorded")
	}
	// §IV-D2: lbm frequently retires 8 eligible instructions (>25% of
	// groups in the paper; require a clearly elevated rate here).
	if float64(wide)/float64(total) < 0.05 {
		t.Fatalf("lbm 8-wide eligible groups = %.1f%%, want elevated",
			100*float64(wide)/float64(total))
	}
}

func TestValidationPoliciesRun(t *testing.T) {
	for _, pol := range []rsep.ValidationPolicy{
		rsep.ValidateIdeal, rsep.ValidateIssue2xSameFU, rsep.ValidateIssue2xAnyFU,
	} {
		rc := rsep.Ideal()
		rc.Validation = pol
		core := buildAndRun(t, "mcf", config.TableI().WithRSEP(rc), 20_000, 50_000)
		st := core.Stats()
		if pol != rsep.ValidateIdeal && st.DistPred > 0 && st.ValidationUops == 0 {
			t.Errorf("policy %v issued no validation µ-ops", pol)
		}
		if err := core.CheckInvariants(); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
}

func TestSameFUValidationCostsLoadThroughput(t *testing.T) {
	// §IV-F1b / Figure 6: locking the load port for validation hurts
	// load-coverage-heavy benchmarks relative to any-FU steering.
	run := func(pol rsep.ValidationPolicy) float64 {
		rc := rsep.Ideal()
		rc.Validation = pol
		core := buildAndRun(t, "mcf", config.TableI().WithRSEP(rc), 40_000, 100_000)
		return core.Stats().IPC()
	}
	same := run(rsep.ValidateIssue2xSameFU)
	any := run(rsep.ValidateIssue2xAnyFU)
	if same > any*1.02 {
		t.Fatalf("same-FU validation (%.3f) should not beat any-FU (%.3f)", same, any)
	}
}

func TestDistancePropagationFIFO(t *testing.T) {
	// With sampling the realistic config must still find pairs: the
	// likely-candidate path trains through validation.
	cfg := config.TableI().WithRSEP(rsep.Realistic())
	core := buildAndRun(t, "libquantum", cfg, 60_000, 100_000)
	if core.Stats().DistPred == 0 {
		t.Fatal("sampling starved the distance predictor completely")
	}
}

// limitedSource ends src after n instructions.
type limitedSource struct {
	src  trace.Source
	left uint64
}

func (l *limitedSource) Next() (uarch.Inst, bool) {
	if l.left == 0 {
		return uarch.Inst{}, false
	}
	l.left--
	return l.src.Next()
}

func TestEndOfStream(t *testing.T) {
	prof := workload.MustByName("gamess")
	src := &limitedSource{src: workload.New(prof, 3), left: 5000}
	core := New(config.TableI(), src)
	got := core.Run(100_000)
	if got < 4900 || got > 5000 {
		t.Fatalf("committed %d of a 5000-instruction stream", got)
	}
	if err := core.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCancellation: a closed cancel channel makes Run return long before
// the commit target, with the stats describing the partial run.
func TestRunCancellation(t *testing.T) {
	core := New(config.TableI(), workload.New(workload.MustByName("mcf"), 1))
	done := make(chan struct{})
	close(done)
	core.SetCancel(done)
	committed := core.Run(500_000_000)
	if committed > 1_000_000 {
		t.Fatalf("cancelled run committed %d instructions", committed)
	}
	if core.Stats().Committed != committed {
		t.Fatal("stats disagree with Run's return value")
	}
	// Clearing the channel resumes normal operation.
	core.SetCancel(nil)
	if got := core.Run(10_000); got == 0 {
		t.Fatal("core did not resume after cancellation cleared")
	}
}
