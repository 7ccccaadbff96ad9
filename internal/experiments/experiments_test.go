package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// tiny returns options small enough for unit testing.
func tiny(benches ...string) Options {
	return Options{
		Benchmarks: benches,
		Segments:   1,
		Warmup:     20_000,
		Measure:    30_000,
		BaseSeed:   5,
	}
}

func checkTable(t *testing.T, tbl *metrics.Table, wantRows int) {
	t.Helper()
	if len(tbl.Header) == 0 {
		t.Fatal("table has no header")
	}
	if len(tbl.Rows) < wantRows {
		t.Fatalf("table has %d rows, want >= %d", len(tbl.Rows), wantRows)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row width %d != header width %d: %v", len(row), len(tbl.Header), row)
		}
	}
}

func TestRunProducesStats(t *testing.T) {
	res, err := Run("gamess", config.TableI(), tiny("gamess").Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("no IPC measured")
	}
	if res.Stats.Committed == 0 {
		t.Fatal("no instructions committed")
	}
}

func TestSweepParallelism(t *testing.T) {
	opt := tiny("gamess", "hmmer")
	opt.Parallelism = 4
	res, err := Sweep([]*config.Config{config.TableI(), config.TableI()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 2 {
		t.Fatalf("result shape %dx%d", len(res), len(res[0]))
	}
	// The same config must give identical results for the same bench.
	if res[0][0].IPC != res[0][1].IPC {
		t.Fatalf("identical configs diverged: %f vs %f", res[0][0].IPC, res[0][1].IPC)
	}
}

func TestFigure1(t *testing.T) {
	tbl, err := Figure1(t.Context(), tiny("zeusmp"))
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 1)
	// zeusmp's zero ratio must be visibly elevated (Figure 1 outlier).
	row := tbl.Rows[0]
	if !strings.Contains(row[0], "zeusmp") {
		t.Fatalf("unexpected row %v", row)
	}
}

func TestFigure4(t *testing.T) {
	tbl, err := Figure4(t.Context(), tiny("hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2) // benchmark + geomean
	if tbl.Rows[len(tbl.Rows)-1][0] != "geomean" {
		t.Fatal("missing geomean summary row")
	}
}

func TestFigure5(t *testing.T) {
	tbl, err := Figure5(t.Context(), tiny("libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2) // RSEP row + RSEP+VP row
}

func TestFigure6(t *testing.T) {
	tbl, err := Figure6(t.Context(), tiny("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 1)
	if len(tbl.Header) != 6 { // benchmark + 5 validation variants
		t.Fatalf("header %v", tbl.Header)
	}
}

func TestFigure7(t *testing.T) {
	tbl, err := Figure7(t.Context(), tiny("hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2) // benchmark + suite summary
}

func TestAblations(t *testing.T) {
	for name, run := range map[string]func(context.Context, Options) (*metrics.Table, error){
		"hist":        HistoryDepth,
		"isrb":        ISRBSweep,
		"hash":        HashWidth,
		"comparators": Comparators,
		"gshare":      GShareVsTAGE,
	} {
		tbl, err := run(t.Context(), tiny("libquantum"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkTable(t, tbl, 1)
	}
}

func TestStaticReports(t *testing.T) {
	checkTable(t, TableIReport(), 5)
	storage := StorageReport()
	checkTable(t, storage, 2)
	// The predictor column must reproduce the paper's 42.6KB and 10.1KB.
	if !strings.Contains(storage.Rows[0][1], "42.") {
		t.Fatalf("ideal predictor storage %q, want ~42.6KB", storage.Rows[0][1])
	}
	if !strings.Contains(storage.Rows[1][1], "10.") {
		t.Fatalf("realistic predictor storage %q, want ~10.1KB", storage.Rows[1][1])
	}
}

// TestSweepDeterministicAcrossParallelism: the same BaseSeed must yield
// byte-identical sweep results whatever the worker count.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	cfgs := []*config.Config{config.TableI(), config.TableI().WithZeroPred()}
	var golden []byte
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		opt := tiny("mcf", "hmmer")
		opt.Segments = 2
		opt.Parallelism = par
		res, err := Sweep(cfgs, opt)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		var buf bytes.Buffer
		for _, row := range res {
			for _, r := range row {
				fmt.Fprintf(&buf, "%s %v ", r.Bench, r.IPC)
				if err := r.Stats.EncodeJSON(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if golden == nil {
			golden = buf.Bytes()
		} else if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("par=%d produced different results than par=1", par)
		}
	}
}

// TestSweepCancellation: a cancelled context surfaces a partial-result error
// without hanging.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	opt := tiny("mcf")
	opt.Parallelism = 2
	_, err := SweepContext(ctx, []*config.Config{config.TableI()}, opt)
	var pe *runner.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.PartialError", err)
	}
}

// TestSweepSharedCache: a cache shared across sweeps eliminates repeated
// simulations of the configurations they have in common.
func TestSweepSharedCache(t *testing.T) {
	opt := tiny("gamess")
	opt.Store = runner.NewCache()
	base := config.TableI()
	if _, err := Sweep([]*config.Config{base}, opt); err != nil {
		t.Fatal(err)
	}
	misses0 := opt.Store.Counters().Misses
	// Second sweep includes the baseline again plus one new config.
	if _, err := Sweep([]*config.Config{base, base.WithMoveElim()}, opt); err != nil {
		t.Fatal(err)
	}
	c := opt.Store.Counters()
	if c.Hits == 0 {
		t.Fatal("shared cache recorded no hits on overlapping configs")
	}
	if c.Misses != misses0+uint64(opt.Segments) {
		t.Fatalf("misses = %d, want %d (only the new config simulates)", c.Misses, misses0+uint64(opt.Segments))
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("GeoMean(2,8) = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run("nope", config.TableI(), tiny("nope").Defaults()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// validatingRunner answers every job with placeholder statistics after
// checking that its config passes config.Validate.
type validatingRunner struct {
	t    *testing.T
	name string
	jobs int
}

func (v *validatingRunner) RunBatch(_ context.Context, b runner.Batch) ([]runner.Result, error) {
	res := make([]runner.Result, len(b.Jobs))
	for i, j := range b.Jobs {
		if err := j.Config.Validate(); err != nil {
			v.t.Errorf("%s: job %d config rejected: %v", v.name, i, err)
		}
		res[i] = runner.Result{Job: j, Stats: &metrics.Stats{Cycles: 2, Committed: 1}}
	}
	v.jobs += len(b.Jobs)
	return res, nil
}

// TestBuiltConfigsValidate pins config.Validate's bounds against the
// configs the repo itself runs: every wire preset and every config the ten
// figure runners build must pass.
func TestBuiltConfigsValidate(t *testing.T) {
	for _, name := range runner.Presets() {
		j, err := runner.JobSpec{Bench: "mcf", Preset: name, Measure: 1}.Job()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if err := j.Config.Validate(); err != nil {
			t.Errorf("preset %s rejected: %v", name, err)
		}
	}
	for name, run := range map[string]func(context.Context, Options) (*metrics.Table, error){
		"fig1":        Figure1,
		"fig4":        Figure4,
		"fig5":        Figure5,
		"fig6":        Figure6,
		"fig7":        Figure7,
		"hist":        HistoryDepth,
		"isrb":        ISRBSweep,
		"hash":        HashWidth,
		"comparators": Comparators,
		"gshare":      GShareVsTAGE,
	} {
		v := &validatingRunner{t: t, name: name}
		opt := tiny("mcf")
		opt.Runner = v
		if _, err := run(t.Context(), opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.jobs == 0 {
			t.Errorf("%s submitted no jobs", name)
		}
	}
}
