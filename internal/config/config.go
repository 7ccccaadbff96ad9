// Package config defines the simulated core configuration. TableI() is the
// paper's Table I machine: an aggressive 8-wide out-of-order core on par
// with Intel Haswell, with a three-level cache hierarchy and DDR4-2400
// memory. Presets derive the experiment configurations of §VI from it.
package config

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"rsepsim/internal/cache"
	"rsepsim/internal/metrics"
	"rsepsim/internal/predictor"
	"rsepsim/internal/rsep"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
)

// Config is the full machine configuration consumed by the pipeline.
type Config struct {
	// Core widths (Table I).
	FetchWidth  int
	DecodeWidth int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Window sizes.
	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	// Physical registers (per class, excluding the hardwired zero reg).
	IntPRegs int
	FPPRegs  int

	// Front end: cycles from fetch to rename (sets the branch
	// misprediction penalty floor of ~17 cycles together with resolve
	// latency), fetch queue capacity, max taken branches per fetch group.
	FrontendDepth  int
	FetchQueue     int
	TakenPerFetch  int
	BTBMissPenalty int
	ZeroIdiomElim  bool // baseline includes zero-idiom elimination (Table I)

	// Execution latencies (cycles).
	IntAluLat, IntMulLat, IntDivLat uint64
	FPAluLat, FPMulLat, FPDivLat    uint64
	DivPipelined                    bool
	STLFLat                         uint64

	// Memory hierarchy.
	CPUFreqGHz  float64
	L1ILatency  uint64
	L1DLatency  uint64
	L2Latency   uint64
	L3Latency   uint64
	L1SizeKB    int
	L1Ways      int
	L2SizeKB    int
	L2Ways      int
	L3SizeKB    int
	L3Ways      int
	MSHRs       int
	ITLBEntries int
	DTLBEntries int
	TLBWalkLat  uint64

	// Store sets.
	SSITEntries int
	LFSTEntries int

	// Optional mechanisms.
	MoveElim bool
	ZeroPred bool // standalone zero prediction (without distance prediction)
	RSEP     *rsep.Config
	VP       *vpred.Config

	// OracleProbe enables the Figure 1 commit-time analysis (live-PRF
	// value multiset).
	OracleProbe bool

	// Seed for the predictors' tie-breaking RNG.
	Seed int64
}

// TableI returns the baseline configuration of the paper's Table I.
func TableI() *Config {
	return &Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		RenameWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,

		ROBSize: 192,
		IQSize:  60,
		LQSize:  72,
		SQSize:  48,

		IntPRegs: 235,
		FPPRegs:  235,

		FrontendDepth:  12,
		FetchQueue:     48,
		TakenPerFetch:  1,
		BTBMissPenalty: 6,
		ZeroIdiomElim:  true,

		IntAluLat: 1, IntMulLat: 3, IntDivLat: 25,
		FPAluLat: 3, FPMulLat: 3, FPDivLat: 11,
		DivPipelined: false,
		STLFLat:      4,

		CPUFreqGHz: 3.2,
		L1ILatency: 1,
		L1DLatency: 4,
		L2Latency:  12,
		L3Latency:  21,
		L1SizeKB:   32, L1Ways: 8,
		L2SizeKB: 256, L2Ways: 16,
		L3SizeKB: 6 * 1024, L3Ways: 24,
		MSHRs:       64,
		ITLBEntries: 128,
		DTLBEntries: 64,
		TLBWalkLat:  30,

		SSITEntries: 2048,
		LFSTEntries: 1024,

		Seed: 1,
	}
}

// MaxSize is the ceiling on every structural size a config may ask for:
// widths, windows, register counts, cache capacities in KB, ways, MSHRs,
// TLB, store-set and predictor table entries. It is 4x the largest size any
// experiment uses (16K-entry predictor tables); a config with every window,
// register file, cache, TLB, store set and RSEP/VP table at MaxSize builds
// a core of about 400 MB, where an unbounded wire value could ask for
// hundreds of GB.
const MaxSize = 1 << 16

// MaxLatency is the ceiling, in cycles, on every latency a config sets:
// execution, store-to-load forwarding, cache and TLB-walk latencies and the
// BTB miss penalty. It is about 40x the longest Table I latency (a 30-cycle
// TLB walk); with every latency at MaxLatency a job takes about twice as
// long per instruction as on Table I, where 2^16 cycles made it 50x slower.
const MaxLatency = 1 << 10

// MaxCPUFreqGHz is the ceiling on CPUFreqGHz, about 30x Table I's 3.2 GHz. The
// clock converts DRAM timings from nanoseconds to core cycles, so a faster
// one makes every DRAM access proportionally longer to simulate.
const MaxCPUFreqGHz = 100

// MaxCommitWidth is the widest commit group the statistics can record: the
// commit-group histogram has one bucket per group size 0..MaxCommitWidth.
const MaxCommitWidth = len(metrics.Stats{}.CommitEligibleHist) - 1

// Validate rejects configurations the pipeline cannot be built on: every
// structural width, window, register count, cache geometry and frequency
// must be positive, every size at most MaxSize, every latency at most
// MaxLatency, the clock at most MaxCPUFreqGHz, CommitWidth at most
// MaxCommitWidth, each register class larger than its architectural
// registers, each cache level at least one set deep, and the RSEP and VP
// predictors' tables non-empty with at most predictor.MaxComponents tagged
// components of one history length each. Configs assembled from TableI and
// the With* derivations always pass; the check guards the wire surface,
// where an inline config must not be able to exhaust a serving process's
// memory, panic the core it is built on, or make a short job run for
// minutes.
func (c *Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	pos := []field{
		{"FetchWidth", c.FetchWidth}, {"DecodeWidth", c.DecodeWidth},
		{"RenameWidth", c.RenameWidth}, {"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize}, {"IQSize", c.IQSize},
		{"LQSize", c.LQSize}, {"SQSize", c.SQSize},
		{"IntPRegs", c.IntPRegs}, {"FPPRegs", c.FPPRegs},
		{"FrontendDepth", c.FrontendDepth}, {"FetchQueue", c.FetchQueue},
		{"TakenPerFetch", c.TakenPerFetch},
		{"L1SizeKB", c.L1SizeKB}, {"L1Ways", c.L1Ways},
		{"L2SizeKB", c.L2SizeKB}, {"L2Ways", c.L2Ways},
		{"L3SizeKB", c.L3SizeKB}, {"L3Ways", c.L3Ways},
		{"MSHRs", c.MSHRs},
		{"ITLBEntries", c.ITLBEntries}, {"DTLBEntries", c.DTLBEntries},
		{"SSITEntries", c.SSITEntries}, {"LFSTEntries", c.LFSTEntries},
	}
	var nonNeg []field // sizes where 0 selects a default or "unbounded"
	if r := c.RSEP; r != nil {
		pos = append(pos, field{"RSEP.TAGE.BaseEntries", r.TAGE.BaseEntries},
			field{"RSEP.TAGE.TaggedEntries", r.TAGE.TaggedEntries})
		nonNeg = append(nonNeg, field{"RSEP.HistEntries", r.HistEntries},
			field{"RSEP.DDTEntries", r.DDTEntries}, field{"RSEP.ISRBEntries", r.ISRBEntries},
			field{"RSEP.ZeroPredEntries", r.ZeroPredEntries})
		if err := components("RSEP.TAGE", r.TAGE.TagBits, r.TAGE.HistLens); err != nil {
			return err
		}
	}
	if v := c.VP; v != nil {
		pos = append(pos, field{"VP.LVTEntries", v.LVTEntries}, field{"VP.TaggedEntries", v.TaggedEntries})
		if err := components("VP", v.TagBits, v.HistLens); err != nil {
			return err
		}
	}
	for _, f := range pos {
		if f.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %d", f.name, f.v)
		}
	}
	for _, f := range append(pos, nonNeg...) {
		if f.v < 0 {
			return fmt.Errorf("config: %s must be non-negative, got %d", f.name, f.v)
		}
		if f.v > MaxSize {
			return fmt.Errorf("config: %s must be at most %d, got %d", f.name, MaxSize, f.v)
		}
	}
	if c.CommitWidth > MaxCommitWidth {
		return fmt.Errorf("config: CommitWidth must be at most %d, got %d", MaxCommitWidth, c.CommitWidth)
	}
	if c.IntPRegs <= uarch.NumIntRegs {
		return fmt.Errorf("config: IntPRegs must exceed the %d architectural registers, got %d", uarch.NumIntRegs, c.IntPRegs)
	}
	if c.FPPRegs <= uarch.NumFPRegs {
		return fmt.Errorf("config: FPPRegs must exceed the %d architectural registers, got %d", uarch.NumFPRegs, c.FPPRegs)
	}
	for _, l := range []struct {
		name     string
		kb, ways int
	}{{"L1", c.L1SizeKB, c.L1Ways}, {"L2", c.L2SizeKB, c.L2Ways}, {"L3", c.L3SizeKB, c.L3Ways}} {
		if l.kb*1024/cache.LineBytes < l.ways {
			return fmt.Errorf("config: %sSizeKB %d holds fewer lines than %sWays %d", l.name, l.kb, l.name, l.ways)
		}
	}
	if c.BTBMissPenalty < 0 {
		return fmt.Errorf("config: BTBMissPenalty must be non-negative, got %d", c.BTBMissPenalty)
	}
	for _, l := range []struct {
		name string
		v    uint64
	}{
		{"IntAluLat", c.IntAluLat}, {"IntMulLat", c.IntMulLat}, {"IntDivLat", c.IntDivLat},
		{"FPAluLat", c.FPAluLat}, {"FPMulLat", c.FPMulLat}, {"FPDivLat", c.FPDivLat},
		{"STLFLat", c.STLFLat},
		{"L1ILatency", c.L1ILatency}, {"L1DLatency", c.L1DLatency},
		{"L2Latency", c.L2Latency}, {"L3Latency", c.L3Latency},
		{"TLBWalkLat", c.TLBWalkLat}, {"BTBMissPenalty", uint64(c.BTBMissPenalty)},
	} {
		if l.v > MaxLatency {
			return fmt.Errorf("config: %s must be at most %d cycles, got %d", l.name, MaxLatency, l.v)
		}
	}
	if c.CPUFreqGHz <= 0 {
		return fmt.Errorf("config: CPUFreqGHz must be positive, got %g", c.CPUFreqGHz)
	}
	if !(c.CPUFreqGHz <= MaxCPUFreqGHz) { // also refuses NaN
		return fmt.Errorf("config: CPUFreqGHz must be at most %d, got %g", MaxCPUFreqGHz, c.CPUFreqGHz)
	}
	return nil
}

// components checks a TAGE component list: at most predictor.MaxComponents
// tagged components, one history length of 1..predictor.MaxHistoryBits per
// component.
func components(name string, tagBits, histLens []int) error {
	if len(tagBits) > predictor.MaxComponents {
		return fmt.Errorf("config: %s has %d tagged components, limit %d", name, len(tagBits), predictor.MaxComponents)
	}
	if len(histLens) != len(tagBits) {
		return fmt.Errorf("config: %s has %d history lengths for %d tagged components", name, len(histLens), len(tagBits))
	}
	for _, l := range histLens {
		if l < 1 || l > predictor.MaxHistoryBits {
			return fmt.Errorf("config: %s history length %d outside [1, %d]", name, l, predictor.MaxHistoryBits)
		}
	}
	return nil
}

// Canonical returns a deterministic byte serialization of the configuration.
// Two configs serialize identically iff every field (including the RSEP and
// VP sub-configs) is equal; field order follows the struct declaration, so
// the encoding is stable across processes and runs. The result cache and the
// on-disk cache planned in ROADMAP.md key on this encoding via Hash.
func (c *Config) Canonical() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Config holds only ints, bools, floats, slices and two optional
		// sub-config structs; marshalling cannot fail on a well-formed value.
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	return b
}

// Hash returns a stable hex digest of the canonical encoding, suitable as a
// cache key. Configs that differ in any field (including Seed) hash
// differently; callers that track the seed separately should normalize it
// before hashing (see runner.Job).
func (c *Config) Hash() string { return c.hash(c.Seed) }

// SeedlessHash returns Hash with the Seed field normalized to zero: the
// digest identifies the machine *geometry and mechanisms*, independent of the
// RNG seed. The runner keys its result cache on it, and its core pool hands
// a job the idle core last used under the same SeedlessHash first, since
// that core resets in place without rebuilding anything.
func (c *Config) SeedlessHash() string { return c.hash(0) }

// hasher is the scratch state of one hash: a copy of the config with the
// seed to encode, and an encoder writing into a reused buffer.
type hasher struct {
	cfg Config
	buf bytes.Buffer
	enc *json.Encoder
}

// hashers recycles hasher state. Every job key hashes its config, and a
// run answered from the result store does little else per job, so hashing
// allocates only the digest string.
var hashers = sync.Pool{New: func() any {
	h := new(hasher)
	h.enc = json.NewEncoder(&h.buf)
	return h
}}

// hash returns the digest of c's canonical encoding with its Seed replaced
// by seed. json.Encoder writes exactly what json.Marshal (Canonical)
// returns, followed by a newline, which is left out of the digest.
func (c *Config) hash(seed int64) string {
	h := hashers.Get().(*hasher)
	h.cfg = *c
	h.cfg.Seed = seed
	h.buf.Reset()
	if err := h.enc.Encode(&h.cfg); err != nil {
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	b := h.buf.Bytes()
	sum := sha256.Sum256(b[:len(b)-1])
	h.cfg = Config{} // drop the sub-config pointers
	hashers.Put(h)
	var digest [32]byte
	hex.Encode(digest[:], sum[:16])
	return string(digest[:])
}

// Clone returns a deep copy (the RSEP and VP sub-configs are copied too).
func (c *Config) Clone() *Config {
	out := *c
	if c.RSEP != nil {
		r := *c.RSEP
		out.RSEP = &r
	}
	if c.VP != nil {
		v := *c.VP
		out.VP = &v
	}
	return &out
}

// WithZeroPred returns a copy with standalone zero prediction enabled.
func (c *Config) WithZeroPred() *Config {
	out := c.Clone()
	out.ZeroPred = true
	return out
}

// WithMoveElim returns a copy with move elimination enabled.
func (c *Config) WithMoveElim() *Config {
	out := c.Clone()
	out.MoveElim = true
	return out
}

// WithRSEP returns a copy running RSEP with the given configuration.
// RSEP runs include move elimination and zero prediction (§VI-A1).
func (c *Config) WithRSEP(r rsep.Config) *Config {
	out := c.Clone()
	out.RSEP = &r
	out.MoveElim = out.MoveElim || r.MoveElim
	return out
}

// WithVP returns a copy running D-VTAGE value prediction.
func (c *Config) WithVP(v vpred.Config) *Config {
	out := c.Clone()
	out.VP = &v
	return out
}

// WithOracle returns a copy with the Figure 1 oracle probe enabled.
func (c *Config) WithOracle() *Config {
	out := c.Clone()
	out.OracleProbe = true
	return out
}
