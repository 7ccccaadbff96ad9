package pipeline

import (
	"math/rand"
	"reflect"

	"rsepsim/internal/branch"
	"rsepsim/internal/cache"
	"rsepsim/internal/config"
	"rsepsim/internal/dram"
	"rsepsim/internal/metrics"
	"rsepsim/internal/predictor"
	"rsepsim/internal/regfile"
	"rsepsim/internal/rsep"
	"rsepsim/internal/storeset"
	"rsepsim/internal/trace"
	"rsepsim/internal/uarch"
	"rsepsim/internal/vpred"
)

// ResetFor rewinds the core to the state New(cfg, src) would construct and
// reports true; any config is accepted. Every component whose constructor
// inputs are the same under cfg as under the config it was built for is
// reset in place, keeping its tables; every other one the config needs is
// built, and the ones it does not need are dropped, so the core never holds
// spares. A change of mechanism therefore rebuilds only that mechanism's
// tables, and a change of seed rebuilds nothing.
//
// The simulation that follows is bit-identical to one on a fresh core: no
// constructor draws from the RNG, so reseeding it in place reproduces a
// fresh rand.Source exactly, and every component's Reset restores its
// freshly constructed state. The checkpoint geometry key is refreshed, so
// Restore's geometry and seed refusals apply to cfg.
//
// This is the job-lifecycle entry point for worker reuse (DESIGN.md §3.3): a
// scheduler worker resets whatever idle core it is handed for each job,
// which keeps the several-MB table construction off the per-job path. The
// core keeps cfg and reads it while it runs, and compares against it at the
// next ResetFor, so a config must not be modified once it is handed to a
// core.
func (c *Core) ResetFor(cfg *config.Config, src trace.Source) bool {
	prev := c.cfg // nil on an empty core: every component is built
	c.cfg = cfg
	c.cfgKey = ""
	c.stats = metrics.Stats{}
	c.cycle = 0
	c.committedTarget = 0
	c.noFF = false
	c.cancel = nil

	// The RNG is shared by every predictor that tie-breaks allocations;
	// none draws during construction, so reseeding equals a fresh source.
	if c.rng == nil {
		c.rngSrc = newCountingSource(cfg.Seed)
		c.rng = rand.New(c.rngSrc)
	}
	c.rng.Seed(cfg.Seed)

	// Front end.
	if c.bp == nil {
		c.bp = branch.New(c.rng)
	} else {
		c.bp.Reset()
	}
	if c.src == nil {
		c.src = trace.NewReplay(src)
	} else {
		c.src.Reset(src)
	}
	c.fetchQ = c.fetchQ[:0]
	c.fqHead = 0
	c.fetchBlocked = noDyn
	c.fetchResume = 0
	c.lastLine = 0
	c.srcDone = false

	// Rename state, then the initial architectural mappings: allocation in
	// architectural order puts the same physical register behind each
	// architectural one on every core.
	if c.rat == nil {
		c.rat = regfile.NewRAT(uarch.NumArchRegs)
	} else {
		c.rat.Reset()
	}
	regsChanged := prev == nil || prev.IntPRegs != cfg.IntPRegs || prev.FPPRegs != cfg.FPPRegs
	if regsChanged {
		c.prf = regfile.NewFile(cfg.IntPRegs, cfg.FPPRegs)
	} else {
		c.prf.Reset()
	}
	c.epochs = resized(c.epochs, c.prf.Size())
	c.ring = c.ring[:0]
	for a := 0; a < uarch.NumArchRegs; a++ {
		p, ok := c.prf.Alloc(uarch.Reg(a).IsFP())
		if !ok {
			panic("pipeline: not enough physical registers for architectural state")
		}
		c.prf.SetValue(p, 0)
		c.prf.SetReadyAt(p, 0)
		c.rat.Set(a, p)
	}

	// Backend queues and ports.
	c.rob = c.rob[:0]
	c.robHead = 0
	c.iqCount = 0
	c.lq = c.lq[:0]
	c.sq = c.sq[:0]
	c.valQ = c.valQ[:0]
	c.ports = append(c.ports[:0], tableIPorts[:]...)

	// Memory system (all levels, both TLBs, DRAM) and store sets.
	if ms := memShapeOf(cfg); prev == nil || memShapeOf(prev) != ms {
		c.mh = ms.build()
	} else {
		c.mh.Reset()
	}
	if prev == nil || prev.SSITEntries != cfg.SSITEntries || prev.LFSTEntries != cfg.LFSTEntries {
		c.ss = storeset.New(cfg.SSITEntries, cfg.LFSTEntries)
	} else {
		c.ss.Reset()
	}

	// RSEP machinery. Each table is kept when the inputs it was built from
	// are unchanged: a non-nil component implies prev configured it.
	rc := cfg.RSEP
	switch {
	case rc == nil:
		c.distPred, c.distHist = nil, nil
	case c.distPred == nil || prev.RSEP.Predictor != rc.Predictor || !reflect.DeepEqual(prev.RSEP.TAGE, rc.TAGE):
		if rc.Predictor == rsep.PredGShare {
			c.distPred = rsep.NewGShareDist(4096, 4096, 16, 8,
				rc.TAGE.UsePredThreshold, rc.TAGE.StartTrainThreshold, nil)
		} else {
			c.distPred = rsep.NewTAGEDist(rc.TAGE, nil, c.rng)
		}
		c.distHist = predictor.NewGlobalHistory(c.distPred.HistoryLengths(), c.distPred.HistoryWidths())
	default:
		c.distPred.Reset()
		c.distHist.Reset()
	}
	switch ps := pairerShapeOf(cfg); {
	case rc == nil:
		c.pairer = nil
	case c.pairer == nil || pairerShapeOf(prev) != ps:
		c.pairer = ps.build()
	default:
		c.pairer.Reset()
	}
	switch zs := zpShapeOf(cfg); {
	case zs.entries == 0:
		c.zp = nil
	case c.zp == nil || zpShapeOf(prev) != zs:
		c.zp = rsep.NewZeroPredictor(zs.entries, zs.usePred, nil)
	default:
		c.zp.Reset()
	}
	if is := isrbShapeOf(cfg); prev == nil || isrbShapeOf(prev) != is {
		c.isrb = regfile.NewISRB(is.entries, is.counterBits)
	} else {
		c.isrb.Reset()
	}
	switch {
	case rc == nil:
		c.hrf = nil
	case c.hrf == nil || regsChanged || prev.RSEP.HashBits != rc.HashBits:
		c.hrf = rsep.NewHRF(c.prf.Size(), uint(rc.HashBits))
	default:
		c.hrf.Reset()
	}
	c.rsepCfg = nil
	if rc != nil {
		r := *rc
		c.rsepCfg = &r
	}
	c.csn = 0

	// Value prediction.
	switch {
	case cfg.VP == nil:
		c.vp, c.vpHist = nil, nil
	case c.vp == nil || !reflect.DeepEqual(*prev.VP, *cfg.VP):
		c.vp = vpred.New(*cfg.VP, nil, c.rng)
		c.vpHist = predictor.NewGlobalHistory(c.vp.HistoryLengths(), c.vp.HistoryWidths())
	default:
		c.vp.Reset()
		c.vpHist.Reset()
	}

	// Figure 1 oracle.
	if cfg.OracleProbe {
		if c.valCount == nil {
			c.valCount = make(map[uint64]int)
		}
		clear(c.valCount)
		c.valWritten = resized(c.valWritten, c.prf.Size())
	} else {
		c.valCount, c.valWritten = nil, nil
	}

	// Dyn arena, sized for the steady-state inflight window (ROB + front-end
	// queue); squash-stranded records with pending events can still grow it.
	// Truncating drops every record; newDyn appends zero records over the
	// retained backing array exactly as on a fresh one.
	if window := cfg.ROBSize + cfg.FetchQueue + 64; cap(c.darena) < window {
		c.darena = make([]dyn, 0, window)
		c.hot = make([]hotState, 0, window)
	} else {
		c.darena = c.darena[:0]
		c.hot = c.hot[:0]
	}
	c.dynFree = c.dynFree[:0]

	// Completion events and wakeup machinery.
	for i := range c.evtHead {
		c.evtHead[i] = noDyn
		c.evtTail[i] = noDyn
	}
	c.evtHeap = c.evtHeap[:0]
	c.evtHeapSeq = 0
	c.readyList = c.readyList[:0]
	c.readyStale = false
	if c.wakeSlots[0] == nil {
		c.carveWakeSlots()
	}
	for i := range c.wakeSlots {
		c.wakeSlots[i] = c.wakeSlots[i][:0]
	}
	c.wakeHeap = c.wakeHeap[:0]
	c.memSleepers = c.memSleepers[:0]
	c.regWaitBuf = c.regWaitBuf[:0]
	c.freeScratch = c.freeScratch[:0]
	return true
}

// carveWakeSlots carves every wake-wheel slot out of one backing array with
// a fixed per-slot capacity. Measured high-water occupancy (live plus stale
// refs accumulated over one wheel revolution) stays at or under 16 across the
// workload suite, so with this reserve the slots essentially never grow —
// without it the 1024 slices grow from nil with a months-long tail of
// high-water-mark appends that shows up as steady-state allocation in the
// pipeline benchmarks. The three-index slices keep appends beyond the
// reserve from bleeding into the next slot: an outlier reallocates its slot
// independently and keeps the larger capacity from then on.
func (c *Core) carveWakeSlots() {
	const wakeSlotReserve = 16
	wakeBacking := make([]wakeRef, wheelSize*wakeSlotReserve)
	for i := range c.wakeSlots {
		lo := i * wakeSlotReserve
		c.wakeSlots[i] = wakeBacking[lo : lo : lo+wakeSlotReserve]
	}
}

// resized returns s cleared if it already has length n, else a fresh zeroed
// slice of length n.
func resized[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// tableIPorts are the issue ports per Table I: 4 ALU (one with Mul, one with
// Div), 3 FP (one FPMul, one FPDiv), 2 load/store, 1 store.
var tableIPorts = [...]port{
	{caps: fuALU | fuBranch},
	{caps: fuALU | fuMul | fuBranch},
	{caps: fuALU | fuDiv | fuBranch},
	{caps: fuALU | fuBranch},
	{caps: fuFP},
	{caps: fuFP | fuFPMul},
	{caps: fuFP | fuFPDiv},
	{caps: fuLoad | fuStore},
	{caps: fuLoad | fuStore},
	{caps: fuStore},
}

// The shapes below are the constructor inputs of the config-sized components
// whose inputs are derived from several config fields. Each component is
// built from its shape alone, so two configs with equal shapes build
// identical components and one can be reset in place for the other.

// memShape is everything the memory hierarchy is built from.
type memShape struct {
	l1KB, l1Ways, l2KB, l2Ways, l3KB, l3Ways, mshrs, itlb, dtlb int
	l1iLat, l1dLat, l2Lat, l3Lat, walkLat                       uint64
	ghz                                                         float64
}

func memShapeOf(cfg *config.Config) memShape {
	return memShape{
		l1KB: cfg.L1SizeKB, l1Ways: cfg.L1Ways,
		l2KB: cfg.L2SizeKB, l2Ways: cfg.L2Ways,
		l3KB: cfg.L3SizeKB, l3Ways: cfg.L3Ways,
		mshrs: cfg.MSHRs, itlb: cfg.ITLBEntries, dtlb: cfg.DTLBEntries,
		l1iLat: cfg.L1ILatency, l1dLat: cfg.L1DLatency,
		l2Lat: cfg.L2Latency, l3Lat: cfg.L3Latency, walkLat: cfg.TLBWalkLat,
		ghz: cfg.CPUFreqGHz,
	}
}

// build wires the hierarchy (NewHierarchy wires innermost last).
func (s memShape) build() *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		L1I: cache.Config{
			Name: "L1I", SizeKB: s.l1KB, Ways: s.l1Ways,
			Latency: s.l1iLat, MSHRs: 8,
		},
		L1D: cache.Config{
			Name: "L1D", SizeKB: s.l1KB, Ways: s.l1Ways,
			Latency: s.l1dLat, MSHRs: s.mshrs,
			Prefetch: cache.NewStride(256, 1),
		},
		L2: cache.Config{
			Name: "L2", SizeKB: s.l2KB, Ways: s.l2Ways,
			Latency: s.l2Lat - s.l1dLat, MSHRs: s.mshrs,
			Prefetch: cache.NewStream(16, 1),
		},
		L3: cache.Config{
			Name: "L3", SizeKB: s.l3KB, Ways: s.l3Ways,
			Latency: s.l3Lat - s.l2Lat, MSHRs: s.mshrs,
			Prefetch: cache.NewStream(16, 1),
		},
		ITLBEntries: s.itlb,
		DTLBEntries: s.dtlb,
		TLBWalkLat:  s.walkLat,
		DRAM:        dram.NewDDR4_2400(s.ghz),
	})
}

// pairerShape sizes the commit-side pairing structure of an RSEP config.
type pairerShape struct {
	ddt               bool
	entries, hashBits int
}

func pairerShapeOf(cfg *config.Config) pairerShape {
	rc := cfg.RSEP
	switch {
	case rc == nil:
		return pairerShape{}
	case rc.Pairer == rsep.PairDDT:
		n := rc.DDTEntries
		if n == 0 {
			n = 8192 // the paper's "unrealistic 16KB DDT"
		}
		return pairerShape{ddt: true, entries: n}
	}
	return pairerShape{entries: rc.HistEntries, hashBits: rc.HashBits}
}

func (s pairerShape) build() rsep.Pairer {
	if s.ddt {
		return rsep.NewDDT(s.entries, 10)
	}
	return rsep.NewFIFOHistory(s.entries, s.hashBits, 10)
}

// zpShape sizes the zero predictor: RSEP's own when it enables one, else the
// standalone one; entries == 0 means the config runs none.
type zpShape struct{ entries, usePred int }

func zpShapeOf(cfg *config.Config) zpShape {
	switch rc := cfg.RSEP; {
	case rc != nil && rc.ZeroPred:
		n := rc.ZeroPredEntries
		if n == 0 {
			n = 4096
		}
		return zpShape{n, rc.TAGE.UsePredThreshold}
	case cfg.ZeroPred:
		return zpShape{4096, 255}
	}
	return zpShape{}
}

// isrbShape sizes the ISRB: RSEP's, or an unbounded one that only keeps the
// reference counts move elimination needs.
type isrbShape struct{ entries, counterBits int }

func isrbShapeOf(cfg *config.Config) isrbShape {
	if rc := cfg.RSEP; rc != nil {
		return isrbShape{rc.ISRBEntries, rc.ISRBCounterBits}
	}
	return isrbShape{0, 6}
}
