// Package pipeline implements the cycle-level 8-wide out-of-order core of
// Table I and integrates the mechanisms under study: zero-idiom elimination,
// move elimination, zero prediction, RSEP distance prediction with physical
// register sharing, and D-VTAGE value prediction.
//
// The model is trace-driven: the workload's functional execution supplies
// instruction records (with results, addresses and branch outcomes) through
// a replay buffer; the pipeline models timing — fetch redirects, renaming,
// scheduling on issue ports, cache/DRAM latencies, squashes — and trains the
// predictors on the genuine value stream at commit, exactly where the paper
// trains them.
package pipeline

import (
	"fmt"
	"math/rand"

	"rsepsim/internal/branch"
	"rsepsim/internal/cache"
	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/predictor"
	"rsepsim/internal/regfile"
	"rsepsim/internal/rsep"
	"rsepsim/internal/storeset"
	"rsepsim/internal/trace"
	"rsepsim/internal/vpred"
)

// fuKind is a functional-unit capability bitmask.
type fuKind uint16

const (
	fuALU fuKind = 1 << iota
	fuMul
	fuDiv
	fuFP
	fuFPMul
	fuFPDiv
	fuLoad
	fuStore
	fuBranch
)

type port struct {
	caps      fuKind
	busyUntil uint64
}

// valUop is a pending validation µ-op (§IV-F): the second issue of a
// distance-predicted (or training) instruction, performing the 64-bit
// compare.
type valUop struct {
	owner   uint32 // arena index of the owning instruction
	readyAt uint64 // max(own result, shared register)
	port    int    // fixed port (same-FU policy) or -1 (any port)
}

type ringEnt struct {
	seq    uint64
	preg   regfile.PReg
	result uint64
	epoch  uint32
}

// Core is the simulated processor.
type Core struct {
	cfg    *config.Config
	cfgKey string // config.SeedlessHash of cfg, computed on first use by Checkpoint/Restore
	src    *trace.Replay
	stats  metrics.Stats
	cycle  uint64
	rng    *rand.Rand
	rngSrc *countingSource // rng's source, position-counted for checkpoints

	// Front end. (The L1I and ITLB live in mh, the memory hierarchy.)
	bp           *branch.Predictor
	fetchQ       []uint32
	fqHead       int
	fetchBlocked uint32 // mispredicted branch stalling fetch until resolve (noDyn if none)
	fetchResume  uint64
	lastLine     uint64
	srcDone      bool

	// Rename.
	rat    *regfile.RAT
	prf    *regfile.File
	isrb   *regfile.ISRB
	epochs []uint32
	ring   []ringEnt // rename-side FIFO of recent result producers

	// Backend. All instruction queues hold arena indices (see arena.go).
	// The IQ itself is only an occupancy count: issue order comes from the
	// ready list, membership from hotState.inIQ.
	rob     []uint32
	robHead int
	iqCount int
	lq      []uint32
	sq      []uint32
	ports   []port
	valQ    []valUop

	// Memory system: the full Table I hierarchy as one concrete struct, so
	// the L1D→L2→L3→DRAM miss chain is direct calls end to end.
	mh *cache.Hierarchy
	ss *storeset.Table

	// RSEP machinery.
	rsepCfg  *rsep.Config
	distPred rsep.DistPredictor
	pairer   rsep.Pairer
	zp       *rsep.ZeroPredictor
	hrf      *rsep.HRF
	distHist *predictor.GlobalHistory
	csn      uint64 // committed eligible-instruction sequence number

	// Value prediction.
	vp     *vpred.DVTAGE
	vpHist *predictor.GlobalHistory

	// Figure 1 oracle.
	valCount   map[uint64]int
	valWritten []bool

	// Dyn arena and free list (arena.go); hot is the dense parallel array
	// of per-instruction scan state (see hotState in dyn.go).
	darena  []dyn
	hot     []hotState
	dynFree []uint32

	// Completion event wheel plus overflow heap (complete.go).
	evtHead    [wheelSize]uint32
	evtTail    [wheelSize]uint32
	evtHeap    []evtHeapEnt
	evtHeapSeq uint64

	// Wakeup scheduling (wakeup.go).
	readyList   []uint32 // dispatched, ready, unissued — sorted by seq
	readyStale  bool     // readyList has entries to compact
	wakeSlots   [wheelSize][]wakeRef
	wakeHeap    []wakeHeapEnt
	memSleepers []wakeRef // loads waiting on an unissued dependence store
	regWaitBuf  []uint64  // scratch for draining register waiter lists

	// Scratch for deferred frees during a squash.
	freeScratch []uint32

	committedTarget uint64

	// noFF disables idle-cycle fast-forward (fastforward.go); the skip is
	// bit-identical by construction, so this exists only for the
	// differential tests and stepped-loop profiling.
	noFF bool

	// cancel, when non-nil, is polled periodically by Run; a closed channel
	// makes Run return early with the simulation state intact.
	cancel <-chan struct{}
}

// New builds a core over the given instruction source. It is ResetFor on an
// empty Core: with no components to reuse, every one the config needs is
// built, so fresh construction and worker reuse share one code path.
func New(cfg *config.Config, src trace.Source) *Core {
	c := &Core{}
	c.ResetFor(cfg, src)
	return c
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() *metrics.Stats { return &c.stats }

// ResetStats clears counters at the end of warmup, keeping all
// microarchitectural state.
func (c *Core) ResetStats() { c.stats = metrics.Stats{} }

// SetCancel installs a cancellation channel (typically ctx.Done()). Run
// polls it every few thousand cycles — cheap enough to be invisible in the
// profile, frequent enough that a cancelled context aborts a long simulation
// within microseconds. A nil channel disables the check.
func (c *Core) SetCancel(done <-chan struct{}) { c.cancel = done }

// cancelPollMask: poll the cancel channel once per 4096 loop iterations.
// Iterations, not cycles: fast-forward makes cycle jumps arbitrary, so a
// cycle-aligned poll could be skipped over indefinitely.
const cancelPollMask = 1<<12 - 1

// Run simulates until n more instructions commit, the source is exhausted,
// or the cancel channel (see SetCancel) fires. It returns the number of
// instructions committed.
func (c *Core) Run(n uint64) uint64 {
	start := c.stats.Committed
	c.committedTarget = start + n
	idle := 0
	iter := uint64(0)
	for c.stats.Committed < c.committedTarget {
		if c.cancel != nil && iter&cancelPollMask == 0 {
			select {
			case <-c.cancel:
				c.finishStats()
				return c.stats.Committed - start
			default:
			}
		}
		iter++
		before := c.stats.Committed
		c.step()
		if c.stats.Committed == before {
			idle++
			if c.srcDone && len(c.rob) == c.robHead && len(c.fetchQ) == c.fqHead {
				break
			}
			if idle > 1_000_000 {
				panic(fmt.Sprintf("pipeline: deadlock — no commit in 1M cycles: %s", c.deadlockState()))
			}
			// A commitless cycle opens a stall; probe for a provably idle
			// stretch and jump it (fastforward.go). Probing only here keeps
			// the quiescence check entirely off the busy-cycle path.
			if !c.noFF {
				c.fastForward()
			}
		} else {
			idle = 0
		}
	}
	c.finishStats()
	return c.stats.Committed - start
}

// step advances one cycle, processing stages back to front so same-cycle
// pass-through is impossible.
func (c *Core) step() {
	c.commit()
	c.complete()
	c.issue()
	c.rename()
	c.fetch()
	c.cycle++
	c.stats.Cycles++
}

func (c *Core) finishStats() {
	c.stats.L1DAccesses = c.mh.L1D.Accesses
	c.stats.L1DMisses = c.mh.L1D.Misses
	c.stats.L2Misses = c.mh.L2.Misses
	c.stats.L3Misses = c.mh.L3.Misses
	c.stats.DRAMReads = c.mh.Mem.Reads
	c.stats.DRAMLatencySum = c.mh.Mem.TotalReadLatency()
	c.stats.AvgDRAMLatency = c.mh.Mem.AvgReadLatency()
	c.stats.BranchMispredicts = c.bp.CondMispredicts
}

// robLen reports the occupancy of the ROB.
func (c *Core) robLen() int { return len(c.rob) - c.robHead }

// fqLen reports the occupancy of the fetch queue.
func (c *Core) fqLen() int { return len(c.fetchQ) - c.fqHead }

func (c *Core) deadlockState() string {
	if c.robHead >= len(c.rob) {
		return fmt.Sprintf("rob empty, fetchQ=%d blocked=%v resume=%d cycle=%d srcDone=%v",
			c.fqLen(), c.fetchBlocked != noDyn, c.fetchResume, c.cycle, c.srcDone)
	}
	d := c.d(c.rob[c.robHead])
	h := c.h(c.rob[c.robHead])
	return fmt.Sprintf("head seq=%d class=%v kind=%d issued=%v done=%v readyAt=%d needVal=%v valIssued=%v inIQ=%v wstate=%d nsrc=%d srcReady=[%d %d %d] provider=p%d provReady=%d cycle=%d iq=%d valQ=%d ready=%d",
		d.seq(), d.in.Class, d.kind, h.issued, h.done, h.readyAt, h.needValUop, h.valUopIssued,
		h.inIQ, h.wstate, d.nsrc,
		c.prf.ReadyAt(d.srcPregs[0]), c.prf.ReadyAt(d.srcPregs[1]), c.prf.ReadyAt(d.srcPregs[2]),
		d.providerPreg, c.prf.ReadyAt(d.providerPreg), c.cycle, c.iqCount, len(c.valQ), len(c.readyList))
}

func (c *Core) robCompact() {
	if c.robHead > 4096 || c.robHead == len(c.rob) {
		c.rob = append(c.rob[:0], c.rob[c.robHead:]...)
		c.robHead = 0
	}
}

func (c *Core) fqCompact() {
	if c.fqHead > 4096 || c.fqHead == len(c.fetchQ) {
		c.fetchQ = append(c.fetchQ[:0], c.fetchQ[c.fqHead:]...)
		c.fqHead = 0
	}
}
