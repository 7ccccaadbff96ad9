package pipeline

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"rsepsim/internal/ckpt"
	"rsepsim/internal/config"
	"rsepsim/internal/trace"
)

// Checkpoint serializes the complete simulation state — pipeline queues, the
// dyn arena, every predictor and cache table, DRAM bank state, the RNG
// position and the trace window — so a core restored from it continues
// bit-identically to one that never paused. Checkpoints must be taken between
// Run calls (at a cycle boundary); Run never pauses mid-cycle, so that is the
// natural grain. The stream goes to w in many small writes, so w should be
// an in-memory buffer or a buffered writer.
//
// The stream starts with the config's seedless hash and seed so Restore can
// refuse a checkpoint taken under a different machine geometry or seed.
func (c *Core) Checkpoint(w io.Writer) error {
	if c.cfgKey == "" {
		c.cfgKey = c.cfg.SeedlessHash()
	}
	s := ckpt.NewEncoder(w)
	key, seed := c.cfgKey, c.cfg.Seed
	s.Str(&key)
	s.I64(&seed)
	s.U64(&c.rngSrc.steps)
	c.walk(s)
	return s.Close()
}

// Restore rewinds the core to a checkpointed state, reusing every table and
// arena already allocated. It refuses (with an error) unless cfg describes
// the machine geometry of the core's last New or ResetFor and both match the
// geometry and seed the checkpoint was taken under; src must be a fresh
// instance of the same instruction source the checkpointed run consumed,
// positioned at its first instruction — the trace window is re-derived from
// it rather than stored. Derived state (the RNG position, the trace window,
// indexes and filters) is rebuilt only once the checksum has matched.
func (c *Core) Restore(cfg *config.Config, src trace.Source, r io.Reader) error {
	if c.cfgKey == "" {
		c.cfgKey = c.cfg.SeedlessHash()
	}
	s, err := ckpt.NewDecoder(r)
	if err != nil {
		return err
	}
	var (
		key   string
		seed  int64
		steps uint64
	)
	s.Str(&key)
	s.I64(&seed)
	s.U64(&steps)
	if err := s.Err(); err != nil {
		return err
	}
	if h := cfg.SeedlessHash(); h != c.cfgKey {
		return fmt.Errorf("pipeline: restore config geometry %s does not match core geometry %s", h, c.cfgKey)
	}
	if key != c.cfgKey {
		return fmt.Errorf("pipeline: checkpoint geometry %s does not match core geometry %s", key, c.cfgKey)
	}
	if seed != cfg.Seed {
		return fmt.Errorf("pipeline: checkpoint seed %d does not match config seed %d", seed, cfg.Seed)
	}
	c.cfg = cfg
	c.committedTarget = 0
	c.cancel = nil
	c.rngSrc.seed, c.rngSrc.steps = seed, steps
	s.Rebuild(c.rngSrc)
	c.src.Reset(src)
	c.walk(s)
	// Intra-stage scratch, empty at every cycle boundary: not stored.
	c.regWaitBuf = c.regWaitBuf[:0]
	c.freeScratch = c.freeScratch[:0]
	return s.Close()
}

// walk hands the core's state to s in stream order: the one list of
// checkpointed state, run by both Checkpoint and Restore.
func (c *Core) walk(s *ckpt.Stream) {
	s.Tag("core")
	ckpt.Struct(s, &c.stats)
	s.U64(&c.cycle)

	// Front end.
	c.bp.Walk(s)
	c.mh.WalkFrontend(s)
	c.src.Walk(s)
	ckpt.Slice(s, &c.fetchQ)
	s.Int(&c.fqHead)
	s.U32(&c.fetchBlocked)
	s.U64(&c.fetchResume)
	s.U64(&c.lastLine)
	s.Bool(&c.srcDone)

	// Rename.
	c.rat.Walk(s)
	c.prf.Walk(s)
	c.isrb.Walk(s)
	ckpt.Fixed(s, c.epochs)
	ckpt.Slice(s, &c.ring)

	// Backend queues and ports.
	ckpt.Slice(s, &c.rob)
	s.Int(&c.robHead)
	s.Int(&c.iqCount)
	ckpt.Slice(s, &c.lq)
	ckpt.Slice(s, &c.sq)
	ckpt.Slice(s, &c.valQ)
	for i := range c.ports {
		s.U64(&c.ports[i].busyUntil)
	}

	// Memory system.
	c.mh.WalkData(s)
	c.ss.Walk(s)

	// RSEP machinery. Component presence is a function of the config, which
	// the geometry hash already pins, so nil guards need no presence bytes.
	if c.distPred != nil {
		c.distPred.Walk(s)
	}
	if c.distHist != nil {
		c.distHist.Walk(s)
	}
	if c.pairer != nil {
		c.pairer.Walk(s)
	}
	if c.zp != nil {
		c.zp.Walk(s)
	}
	if c.hrf != nil {
		c.hrf.Walk(s)
	}
	s.U64(&c.csn)

	// Value prediction.
	if c.vp != nil {
		c.vp.Walk(s)
		c.vpHist.Walk(s)
	}

	// Figure 1 oracle.
	if c.valCount != nil {
		s.Tag("oracle")
		c.walkValCount(s)
		ckpt.Fixed(s, c.valWritten)
	}

	// Dyn arena and scan state.
	s.Tag("arena")
	ckpt.Slice(s, &c.darena)
	ckpt.Slice(s, &c.hot)
	ckpt.Slice(s, &c.dynFree)

	// Completion events and wakeup machinery.
	ckpt.Struct(s, &c.evtHead)
	ckpt.Struct(s, &c.evtTail)
	ckpt.Slice(s, &c.evtHeap)
	s.U64(&c.evtHeapSeq)
	ckpt.Slice(s, &c.readyList)
	s.Bool(&c.readyStale)
	for i := range c.wakeSlots {
		ckpt.Slice(s, &c.wakeSlots[i])
	}
	ckpt.Slice(s, &c.wakeHeap)
	ckpt.Slice(s, &c.memSleepers)
}

// walkValCount hands the Figure 1 value counts to s as a count and then
// key/count pairs, keys sorted so identical states encode identically.
func (c *Core) walkValCount(s *ckpt.Stream) {
	n := len(c.valCount)
	s.Int(&n)
	if !s.Decoding() {
		for _, k := range slices.Sorted(maps.Keys(c.valCount)) {
			v := c.valCount[k]
			s.U64(&k)
			s.Int(&v)
		}
		return
	}
	clear(c.valCount)
	for i := 0; i < n && s.Err() == nil; i++ {
		var k uint64
		var v int
		s.U64(&k)
		s.Int(&v)
		c.valCount[k] = v
	}
}

// NewFromCheckpoint builds a core for cfg and restores it from the checkpoint
// stream, refusing on any geometry, seed, version or checksum mismatch. src
// must be a fresh instance of the instruction source the checkpointed run
// consumed.
func NewFromCheckpoint(cfg *config.Config, src trace.Source, r io.Reader) (*Core, error) {
	c := New(cfg, src)
	if err := c.Restore(cfg, src, r); err != nil {
		return nil, err
	}
	return c, nil
}
