package pipeline

import (
	"fmt"
	"io"
	"sort"

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
	cw := ckpt.NewWriter(w)
	cw.Str(c.cfgKey)
	cw.I64(c.cfg.Seed)
	cw.U64(c.rngSrc.steps)

	cw.Mark("core")
	ckpt.Struct(cw, &c.stats)
	cw.U64(c.cycle)

	// Front end.
	c.bp.Save(cw)
	c.mh.SaveFrontend(cw)
	c.src.Save(cw)
	ckpt.Slice(cw, c.fetchQ)
	cw.Int(c.fqHead)
	cw.U32(c.fetchBlocked)
	cw.U64(c.fetchResume)
	cw.U64(c.lastLine)
	cw.Bool(c.srcDone)

	// Rename.
	c.rat.Save(cw)
	c.prf.Save(cw)
	c.isrb.Save(cw)
	ckpt.Slice(cw, c.epochs)
	ckpt.Slice(cw, c.ring)

	// Backend queues and ports.
	ckpt.Slice(cw, c.rob)
	cw.Int(c.robHead)
	cw.Int(c.iqCount)
	ckpt.Slice(cw, c.lq)
	ckpt.Slice(cw, c.sq)
	ckpt.Slice(cw, c.valQ)
	for i := range c.ports {
		cw.U64(c.ports[i].busyUntil)
	}

	// Memory system.
	c.mh.SaveData(cw)
	c.ss.Save(cw)

	// RSEP machinery. Component presence is a function of the config, which
	// the geometry hash already pins, so nil guards need no presence bytes.
	if c.distPred != nil {
		c.distPred.Save(cw)
	}
	if c.distHist != nil {
		c.distHist.Save(cw)
	}
	if c.pairer != nil {
		c.pairer.Save(cw)
	}
	if c.zp != nil {
		c.zp.Save(cw)
	}
	if c.hrf != nil {
		c.hrf.Save(cw)
	}
	cw.U64(c.csn)

	// Value prediction.
	if c.vp != nil {
		c.vp.Save(cw)
		c.vpHist.Save(cw)
	}

	// Figure 1 oracle. Keys are sorted so identical states produce
	// byte-identical checkpoints.
	if c.valCount != nil {
		cw.Mark("oracle")
		keys := make([]uint64, 0, len(c.valCount))
		for k := range c.valCount {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		cw.Int(len(keys))
		for _, k := range keys {
			cw.U64(k)
			cw.Int(c.valCount[k])
		}
		ckpt.Slice(cw, c.valWritten)
	}

	// Dyn arena and scan state.
	cw.Mark("arena")
	ckpt.Slice(cw, c.darena)
	ckpt.Slice(cw, c.hot)
	ckpt.Slice(cw, c.dynFree)

	// Completion events and wakeup machinery. regWaitBuf and freeScratch
	// are intra-stage scratch, empty at every cycle boundary — not saved.
	ckpt.Struct(cw, &c.evtHead)
	ckpt.Struct(cw, &c.evtTail)
	ckpt.Slice(cw, c.evtHeap)
	cw.U64(c.evtHeapSeq)
	ckpt.Slice(cw, c.readyList)
	cw.Bool(c.readyStale)
	for i := range c.wakeSlots {
		ckpt.Slice(cw, c.wakeSlots[i])
	}
	ckpt.Slice(cw, c.wakeHeap)
	ckpt.Slice(cw, c.memSleepers)

	return cw.Close()
}

// Restore rewinds the core to a checkpointed state, reusing every table and
// arena already allocated. It refuses (with an error) unless cfg describes
// the machine geometry of the core's last New or ResetFor and both match the
// geometry and seed the checkpoint was taken under; src must be a fresh instance of the same instruction source the
// checkpointed run consumed, positioned at its first instruction — the trace
// window is re-derived from it rather than stored.
func (c *Core) Restore(cfg *config.Config, src trace.Source, r io.Reader) error {
	if c.cfgKey == "" {
		c.cfgKey = c.cfg.SeedlessHash()
	}
	cr, err := ckpt.NewReader(r)
	if err != nil {
		return err
	}
	key := cr.Str()
	seed := cr.I64()
	rngSteps := cr.U64()
	if err := cr.Err(); err != nil {
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
	c.rngSrc.restore(seed, rngSteps)

	cr.Expect("core")
	ckpt.ReadStruct(cr, &c.stats)
	c.cycle = cr.U64()

	// Front end.
	c.bp.Load(cr)
	c.mh.LoadFrontend(cr)
	if err := c.src.Load(cr, src); err != nil {
		return err
	}
	c.fetchQ = ckpt.ReadSlice(cr, c.fetchQ)
	c.fqHead = cr.Int()
	c.fetchBlocked = cr.U32()
	c.fetchResume = cr.U64()
	c.lastLine = cr.U64()
	c.srcDone = cr.Bool()

	// Rename.
	c.rat.Load(cr)
	c.prf.Load(cr)
	c.isrb.Load(cr)
	ckpt.ReadSliceFixed(cr, c.epochs)
	c.ring = ckpt.ReadSlice(cr, c.ring)

	// Backend queues and ports.
	c.rob = ckpt.ReadSlice(cr, c.rob)
	c.robHead = cr.Int()
	c.iqCount = cr.Int()
	c.lq = ckpt.ReadSlice(cr, c.lq)
	c.sq = ckpt.ReadSlice(cr, c.sq)
	c.valQ = ckpt.ReadSlice(cr, c.valQ)
	for i := range c.ports {
		c.ports[i].busyUntil = cr.U64()
	}

	// Memory system.
	c.mh.LoadData(cr)
	c.ss.Load(cr)

	// RSEP machinery.
	if c.distPred != nil {
		c.distPred.Load(cr)
	}
	if c.distHist != nil {
		c.distHist.Load(cr)
	}
	if c.pairer != nil {
		c.pairer.Load(cr)
	}
	if c.zp != nil {
		c.zp.Load(cr)
	}
	if c.hrf != nil {
		c.hrf.Load(cr)
	}
	c.csn = cr.U64()

	// Value prediction.
	if c.vp != nil {
		c.vp.Load(cr)
		c.vpHist.Load(cr)
	}

	// Figure 1 oracle.
	if c.valCount != nil {
		cr.Expect("oracle")
		clear(c.valCount)
		n := cr.Int()
		for i := 0; i < n && cr.Err() == nil; i++ {
			k := cr.U64()
			c.valCount[k] = cr.Int()
		}
		ckpt.ReadSliceFixed(cr, c.valWritten)
	}

	// Dyn arena and scan state.
	cr.Expect("arena")
	c.darena = ckpt.ReadSlice(cr, c.darena)
	c.hot = ckpt.ReadSlice(cr, c.hot)
	c.dynFree = ckpt.ReadSlice(cr, c.dynFree)

	// Completion events and wakeup machinery.
	ckpt.ReadStruct(cr, &c.evtHead)
	ckpt.ReadStruct(cr, &c.evtTail)
	c.evtHeap = ckpt.ReadSlice(cr, c.evtHeap)
	c.evtHeapSeq = cr.U64()
	c.readyList = ckpt.ReadSlice(cr, c.readyList)
	c.readyStale = cr.Bool()
	for i := range c.wakeSlots {
		c.wakeSlots[i] = ckpt.ReadSlice(cr, c.wakeSlots[i])
	}
	c.wakeHeap = ckpt.ReadSlice(cr, c.wakeHeap)
	c.memSleepers = ckpt.ReadSlice(cr, c.memSleepers)
	c.regWaitBuf = c.regWaitBuf[:0]
	c.freeScratch = c.freeScratch[:0]

	return cr.Close()
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
