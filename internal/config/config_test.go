package config

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rsepsim/internal/cache"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
)

func TestTableIValues(t *testing.T) {
	c := TableI()
	// Spot-check the Table I parameters.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"fetch width", c.FetchWidth, 8},
		{"ROB", c.ROBSize, 192},
		{"IQ", c.IQSize, 60},
		{"LQ", c.LQSize, 72},
		{"SQ", c.SQSize, 48},
		{"INT pregs", c.IntPRegs, 235},
		{"FP pregs", c.FPPRegs, 235},
		{"SSIT", c.SSITEntries, 2048},
		{"LFST", c.LFSTEntries, 1024},
		{"L1 KB", c.L1SizeKB, 32},
		{"L2 KB", c.L2SizeKB, 256},
		{"L3 KB", c.L3SizeKB, 6144},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
	if c.IntDivLat != 25 || c.FPDivLat != 11 || c.DivPipelined {
		t.Error("divider latencies/pipelining do not match Table I")
	}
	if c.L1DLatency != 4 || c.L2Latency != 12 || c.L3Latency != 21 {
		t.Error("cache latencies do not match Table I")
	}
	if !c.ZeroIdiomElim {
		t.Error("Table I baseline includes zero-idiom elimination")
	}
	if c.RSEP != nil || c.VP != nil || c.MoveElim || c.ZeroPred {
		t.Error("baseline must not enable optional mechanisms")
	}
}

func TestPresetsAreIndependentCopies(t *testing.T) {
	base := TableI()
	r := base.WithRSEP(rsep.Ideal())
	v := base.WithVP(vpred.BeBoP())
	if base.RSEP != nil || base.VP != nil {
		t.Fatal("presets mutated the base config")
	}
	if r.RSEP == nil || !r.MoveElim {
		t.Fatal("WithRSEP must enable RSEP and its move elimination")
	}
	if v.VP == nil || v.RSEP != nil {
		t.Fatal("WithVP wrong")
	}
	// Mutating a clone's sub-config must not leak.
	r2 := r.Clone()
	r2.RSEP.HistEntries = 1
	if r.RSEP.HistEntries == 1 {
		t.Fatal("Clone shares RSEP sub-config")
	}
	combined := base.WithRSEP(rsep.Realistic()).WithVP(vpred.BeBoP())
	if combined.RSEP == nil || combined.VP == nil {
		t.Fatal("combination lost a mechanism")
	}
	if !base.WithOracle().OracleProbe {
		t.Fatal("WithOracle lost the flag")
	}
	if !base.WithZeroPred().ZeroPred || !base.WithMoveElim().MoveElim {
		t.Fatal("simple presets broken")
	}
}

func TestCanonicalHash(t *testing.T) {
	base := TableI()
	if base.Hash() != TableI().Hash() {
		t.Fatal("equal configs hash differently")
	}
	if base.Hash() != base.Clone().Hash() {
		t.Fatal("clone hashes differently")
	}
	distinct := map[string]*Config{
		"base":      base,
		"zeropred":  base.WithZeroPred(),
		"moveelim":  base.WithMoveElim(),
		"rsep":      base.WithRSEP(rsep.Ideal()),
		"rsep-real": base.WithRSEP(rsep.Realistic()),
		"vp":        base.WithVP(vpred.BeBoP()),
		"oracle":    base.WithOracle(),
	}
	seen := map[string]string{}
	for name, c := range distinct {
		h := c.Hash()
		if prev, ok := seen[h]; ok {
			t.Fatalf("%s and %s share hash %s", name, prev, h)
		}
		seen[h] = name
	}
	// A deep field change must be visible.
	tweaked := base.WithRSEP(rsep.Ideal())
	tweaked.RSEP.HistEntries = 32
	if tweaked.Hash() == base.WithRSEP(rsep.Ideal()).Hash() {
		t.Fatal("sub-config field change did not affect the hash")
	}
	// Seed participates: runner.Key normalizes it explicitly.
	reseeded := base.Clone()
	reseeded.Seed = 12345
	if reseeded.Hash() == base.Hash() {
		t.Fatal("seed change did not affect the hash")
	}
	if len(base.Canonical()) == 0 {
		t.Fatal("empty canonical encoding")
	}
}

// TestHashDigestsCanonical: Hash is the digest of Canonical, and
// SeedlessHash that of a copy with the seed zeroed, so result-store keys
// written by earlier versions stay valid.
func TestHashDigestsCanonical(t *testing.T) {
	digest := func(c *Config) string {
		sum := sha256.Sum256(c.Canonical())
		return hex.EncodeToString(sum[:16])
	}
	base := TableI()
	cfgs := []*Config{base, base.WithZeroPred(), base.WithMoveElim(), base.WithRSEP(rsep.Ideal()),
		base.WithRSEP(rsep.Realistic()), base.WithVP(vpred.BeBoP()),
		base.WithRSEP(rsep.Realistic()).WithVP(vpred.BeBoP()), base.WithOracle()}
	for i, c := range cfgs {
		for _, seed := range []int64{0, 1, -3, 12345} {
			c := c.Clone()
			c.Seed = seed
			if got, want := c.Hash(), digest(c); got != want {
				t.Errorf("config %d seed %d: Hash %s, want %s", i, seed, got, want)
			}
			zero := c.Clone()
			zero.Seed = 0
			if got, want := c.SeedlessHash(), digest(zero); got != want {
				t.Errorf("config %d seed %d: SeedlessHash %s, want %s", i, seed, got, want)
			}
		}
	}
	// The Table I key every stored result of the baseline machine is filed
	// under.
	if got, want := base.SeedlessHash(), "382a30fca096a763978b14524ed0151f"; got != want {
		t.Errorf("TableI SeedlessHash %s, want %s", got, want)
	}
	// The scratch state is shared through a pool: concurrent hashing of
	// different configs must not mix them.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				c := cfgs[(g+i)%len(cfgs)]
				if got, want := c.Hash(), digest(c); got != want {
					t.Errorf("concurrent Hash %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestValidateBounds: wire configs that would exhaust memory or panic at
// construction are rejected, each naming the offending field.
func TestValidateBounds(t *testing.T) {
	rsepWith := func(f func(r *rsep.Config)) *Config {
		r := rsep.Ideal()
		f(&r)
		return TableI().WithRSEP(r)
	}
	vpWith := func(f func(v *vpred.Config)) *Config {
		v := vpred.BeBoP()
		f(&v)
		return TableI().WithVP(v)
	}
	cases := []struct {
		name, field string
		cfg         *Config
	}{
		{"huge L3", "L3SizeKB", func() *Config { c := TableI(); c.L3SizeKB = 1 << 30; return c }()},
		{"huge ROB", "ROBSize", func() *Config { c := TableI(); c.ROBSize = MaxSize + 1; return c }()},
		{"wide commit", "CommitWidth", func() *Config { c := TableI(); c.CommitWidth = MaxCommitWidth + 1; return c }()},
		{"no free int register", "IntPRegs", func() *Config { c := TableI(); c.IntPRegs = uarch.NumIntRegs; return c }()},
		{"no free FP register", "FPPRegs", func() *Config { c := TableI(); c.FPPRegs = 1; return c }()},
		{"setless L3", "L3SizeKB", func() *Config { c := TableI(); c.L3SizeKB = 1; return c }()},
		{"setless L1", "L1SizeKB", func() *Config { c := TableI(); c.L1Ways = 1000; return c }()},
		{"huge RSEP base", "RSEP.TAGE.BaseEntries", rsepWith(func(r *rsep.Config) { r.TAGE.BaseEntries = 1 << 40 })},
		{"empty RSEP tagged", "RSEP.TAGE.TaggedEntries", rsepWith(func(r *rsep.Config) { r.TAGE.TaggedEntries = 0 })},
		{"huge FIFO", "RSEP.HistEntries", rsepWith(func(r *rsep.Config) { r.HistEntries = MaxSize + 1 })},
		{"negative ISRB", "RSEP.ISRBEntries", rsepWith(func(r *rsep.Config) { r.ISRBEntries = -1 })},
		{"too many RSEP components", "RSEP.TAGE", rsepWith(func(r *rsep.Config) {
			r.TAGE.TagBits = make([]int, predictor.MaxComponents+1)
			r.TAGE.HistLens = make([]int, predictor.MaxComponents+1)
			for i := range r.TAGE.HistLens {
				r.TAGE.HistLens[i] = 1
			}
		})},
		{"history per component", "RSEP.TAGE", rsepWith(func(r *rsep.Config) { r.TAGE.HistLens = r.TAGE.HistLens[:2] })},
		{"history too long", "RSEP.TAGE", rsepWith(func(r *rsep.Config) { r.TAGE.HistLens[0] = predictor.MaxHistoryBits + 1 })},
		{"huge LVT", "VP.LVTEntries", vpWith(func(v *vpred.Config) { v.LVTEntries = MaxSize + 1 })},
		{"too many VP components", "VP", vpWith(func(v *vpred.Config) {
			v.TagBits = append(v.TagBits, 1, 1, 1)
			v.HistLens = append(v.HistLens, 1, 1, 1)
		})},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	at := TableI()
	at.L3SizeKB = MaxSize
	at.CommitWidth = MaxCommitWidth
	at.IntPRegs, at.FPPRegs = uarch.NumIntRegs+1, uarch.NumFPRegs+1
	at.L1SizeKB, at.L1Ways = 1, 1024/cache.LineBytes
	if err := at.Validate(); err != nil {
		t.Errorf("sizes at their limits rejected: %v", err)
	}
}

// TestValidateLatencyBounds: every latency field — each uint64 field of
// Config, plus BTBMissPenalty — is refused one cycle past MaxLatency and
// accepted at it, and the clock is refused past MaxCPUFreqGHz (or NaN) and
// accepted at it. A latency field added later without a bound fails here.
func TestValidateLatencyBounds(t *testing.T) {
	var lats []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Config]()) {
		if f.Type.Kind() == reflect.Uint64 || f.Name == "BTBMissPenalty" {
			lats = append(lats, f.Name)
		}
	}
	if len(lats) != 13 {
		t.Fatalf("found %d latency fields, want 13: %v", len(lats), lats)
	}
	set := func(c *Config, name string, v uint64) *Config {
		f := reflect.ValueOf(c).Elem().FieldByName(name)
		if f.Kind() == reflect.Int {
			f.SetInt(int64(v))
		} else {
			f.SetUint(v)
		}
		return c
	}
	at := TableI()
	for _, name := range lats {
		if err := set(TableI(), name, MaxLatency+1).Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s = %d: Validate() = %v, want an error naming %s", name, MaxLatency+1, err, name)
		}
		if err := set(TableI(), name, MaxLatency).Validate(); err != nil {
			t.Errorf("%s = %d rejected: %v", name, MaxLatency, err)
		}
		set(at, name, MaxLatency)
	}
	at.CPUFreqGHz = MaxCPUFreqGHz
	if err := at.Validate(); err != nil {
		t.Errorf("every latency and the clock at their limits rejected: %v", err)
	}
	for _, ghz := range []float64{MaxCPUFreqGHz * 1.01, 1e12, math.Inf(1), math.NaN(), 0, -1} {
		c := TableI()
		c.CPUFreqGHz = ghz
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "CPUFreqGHz") {
			t.Errorf("CPUFreqGHz = %g: Validate() = %v, want an error naming CPUFreqGHz", ghz, err)
		}
	}
}
