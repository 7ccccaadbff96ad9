package pipeline

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/trace"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

func statsJSON(t *testing.T, core *Core) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.Stats().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reuseConfigs is one config per mechanism whose tables ResetFor must keep,
// rebuild or drop, plus a geometry change (ROB and L3 size), each with the
// benchmark its reuse runs are measured on: memory-heavy mcf for the
// baseline, geometry and the predictors that track loads, hmmer for the
// rest.
func reuseConfigs() []struct {
	name, bench string
	cfg         *config.Config
} {
	base := config.TableI()
	gshare := rsep.Ideal()
	gshare.Predictor = rsep.PredGShare
	ddt := rsep.Ideal()
	ddt.Pairer = rsep.PairDDT
	geometry := base.Clone()
	geometry.ROBSize *= 2
	geometry.L3SizeKB *= 2
	return []struct {
		name, bench string
		cfg         *config.Config
	}{
		{"baseline", "mcf", base},
		{"zeropred", "hmmer", base.WithZeroPred()},
		{"moveelim", "hmmer", base.WithMoveElim()},
		{"rsep-ideal", "mcf", base.WithRSEP(rsep.Ideal())},
		{"rsep-realistic", "hmmer", base.WithRSEP(rsep.Realistic())},
		{"rsep-gshare", "hmmer", base.WithRSEP(gshare)},
		{"rsep-ddt", "mcf", base.WithRSEP(ddt)},
		{"vp", "mcf", base.WithVP(vpred.BeBoP())},
		{"rsep-vp", "mcf", base.WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
		{"oracle", "hmmer", base.WithOracle()},
		{"geometry", "mcf", geometry},
	}
}

// TestCoreReuseDeterminism is the worker-reuse contract: a core that already
// ran a different job (different mechanism, workload and seed) and was then
// ResetFor the target job must produce byte-identical statistics and
// byte-identical checkpoints to a freshly constructed core. Every ordered
// pair of reuseConfigs is covered, so each component is exercised being
// kept, rebuilt, dropped and built from nothing — branch/distance/value
// predictors, pairing structures, zero predictor, ISRB, HRF, oracle maps,
// caches, TLBs, DRAM banks, store sets, arena and wheels. The warm worker
// runs 15k instructions of xalancbmk before the reset, and the target job
// 10k of warm-up and 20k measured.
func TestCoreReuseDeterminism(t *testing.T) {
	run := func(core *Core) (stats, ckpt []byte) {
		core.Run(10_000)
		core.ResetStats()
		core.Run(20_000)
		var buf bytes.Buffer
		if err := core.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return statsJSON(t, core), buf.Bytes()
	}
	// reuse resets the warm worker for cfg over src and compares its run
	// with a fresh core's.
	reuse := func(t *testing.T, reused *Core, cfg *config.Config, src trace.Source, wantStats, wantCkpt []byte) {
		t.Helper()
		if !reused.ResetFor(cfg, src) {
			t.Fatal("ResetFor refused a config")
		}
		gotStats, gotCkpt := run(reused)
		if !bytes.Equal(gotStats, wantStats) {
			t.Errorf("reused core diverges from fresh core\n got: %s\nwant: %s", gotStats, wantStats)
		}
		if !bytes.Equal(gotCkpt, wantCkpt) {
			t.Errorf("reused core checkpoints %d bytes differing from a fresh core's %d", len(gotCkpt), len(wantCkpt))
		}
	}
	cfgs := reuseConfigs()
	for _, to := range cfgs {
		t.Run(to.name, func(t *testing.T) {
			src := func() *workload.Gen { return workload.New(workload.MustByName(to.bench), 7) }
			cfg := to.cfg
			wantStats, wantCkpt := run(New(cfg, src()))
			for _, from := range cfgs {
				t.Run("from-"+from.name, func(t *testing.T) {
					// A warm worker: different seed, different workload.
					inter := from.cfg.Clone()
					inter.Seed = 99
					reused := New(inter, workload.New(workload.MustByName("xalancbmk"), 5))
					reused.Run(15_000)
					reuse(t, reused, cfg, src(), wantStats, wantCkpt)
				})
			}
		})
	}

	// The profile workloads never train the store sets, so one pair runs
	// aliasSource on both sides: the worker's learned store sets must not
	// survive into the job.
	t.Run("storesets/from-storesets", func(t *testing.T) {
		cfg := config.TableI()
		wantStats, wantCkpt := run(New(cfg, &aliasSource{}))
		inter := cfg.Clone()
		inter.Seed = 99
		reused := New(inter, &aliasSource{})
		reused.Run(15_000)
		reuse(t, reused, cfg, &aliasSource{}, wantStats, wantCkpt)
	})
}

// TestResetForGeometryChange pins what ResetFor does to the checkpoint
// contract: after a geometry change the core answers for the new geometry,
// so a checkpoint taken before the change is refused, while a seed-only
// change keeps the geometry.
func TestResetForGeometryChange(t *testing.T) {
	prof := workload.MustByName("mcf")
	core := New(config.TableI(), workload.New(prof, 7))
	core.Run(5_000)
	var blob bytes.Buffer
	if err := core.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	bigger := config.TableI()
	bigger.ROBSize *= 2
	if !core.ResetFor(bigger, workload.New(prof, 7)) {
		t.Fatal("ResetFor refused a ROB-size change")
	}
	if err := core.Restore(bigger, workload.New(prof, 7), bytes.NewReader(blob.Bytes())); err == nil {
		t.Error("Restore accepted a checkpoint taken before a geometry change")
	}

	reseeded := config.TableI()
	reseeded.Seed = 12345
	if !core.ResetFor(reseeded, workload.New(prof, 7)) {
		t.Error("ResetFor refused a seed-only change")
	}
}

// oneFieldChanges returns, for every leaf field of cfg (the RSEP and VP
// sub-configs included), a copy of cfg with just that field changed.
// Ints halve (or grow by one from below 2), uint64 latencies grow by one, so
// level-to-level latency differences stay positive, enums step to the next
// kind, flags flip, floats double, and every element of a component list
// grows by one.
func oneFieldChanges(cfg *config.Config) map[string]*config.Config {
	out := make(map[string]*config.Config)
	var walk func(path string, get func(*config.Config) reflect.Value)
	walk = func(path string, get func(*config.Config) reflect.Value) {
		v := get(cfg)
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, func(c *config.Config) reflect.Value { return get(c).Elem() })
			}
			return
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				walk(path+"."+name, func(c *config.Config) reflect.Value { return get(c).Field(i) })
			}
			return
		}
		c := cfg.Clone()
		f := get(c)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			// Halving keeps table sizes powers of two and widths within
			// the model's fixed per-cycle arrays.
			n := f.Int() / 2
			if n < 1 {
				n = f.Int() + 1
			}
			f.SetInt(n)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(2 * f.Float())
		case reflect.Slice:
			grown := make([]int, f.Len())
			for i := range grown {
				grown[i] = int(f.Index(i).Int()) + 1
			}
			f.Set(reflect.ValueOf(grown)) // the clone shares the original's slices
		default:
			panic("oneFieldChanges: unhandled kind " + f.Kind().String() + " at " + path)
		}
		out[path] = c
	}
	walk("Config", func(c *config.Config) reflect.Value { return reflect.ValueOf(c).Elem() })
	return out
}

// TestResetForEveryConfigField is the constructor-input audit behind
// component reuse: whichever single config field changes, in either
// direction, ResetFor must match New byte for byte. A field some
// component's constructor reads but ResetFor does not compare would keep a
// table of the wrong shape and show up here. One core alternates between
// the base config and each changed one.
func TestResetForEveryConfigField(t *testing.T) {
	base := config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())
	src := func() *workload.Gen { return workload.New(workload.MustByName("mcf"), 3) }
	run := func(core *Core) (stats, ckpt []byte) {
		core.Run(2_000)
		core.ResetStats()
		core.Run(4_000)
		var buf bytes.Buffer
		if err := core.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return statsJSON(t, core), buf.Bytes()
	}
	baseStats, baseCkpt := run(New(base, src()))
	changes := oneFieldChanges(base)
	if len(changes) < 60 {
		t.Fatalf("only %d fields found", len(changes))
	}
	core := New(base, workload.New(workload.MustByName("gcc"), 9))
	core.Run(3_000)
	for _, path := range slices.Sorted(maps.Keys(changes)) {
		t.Run(path, func(t *testing.T) {
			check := func(to *config.Config, wantStats, wantCkpt []byte, which string) {
				t.Helper()
				core.ResetFor(to, src())
				gotStats, gotCkpt := run(core)
				if !bytes.Equal(gotStats, wantStats) || !bytes.Equal(gotCkpt, wantCkpt) {
					t.Errorf("reused core diverges from a fresh core after switching to the %s config", which)
				}
			}
			wantStats, wantCkpt := run(New(changes[path], src()))
			check(changes[path], wantStats, wantCkpt, "changed")
			check(base, baseStats, baseCkpt, "base")
		})
	}
}
