package cache

import (
	"rsepsim/internal/ckpt"
	"rsepsim/internal/dram"
)

// Hierarchy is the concrete Table I memory system: both L1s in front of a
// shared L2, the L3, DRAM, and the two TLBs, wired as a struct of concrete
// types so the L1D→L2→L3→DRAM miss chain is direct calls end to end (New
// recognises the concrete backends; see Cache.fillFrom). The Backend
// interface remains the seam tests use to put a level in front of a
// fixed-latency or reference next level.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
	ITLB, DTLB       *TLB
	Mem              *dram.Memory
}

// HierarchyConfig sizes a full hierarchy. The per-level Configs carry their
// own latencies and prefetchers exactly as when levels are built directly.
type HierarchyConfig struct {
	L1I, L1D, L2, L3         Config
	ITLBEntries, DTLBEntries int
	TLBWalkLat               uint64
	DRAM                     dram.Config
}

// NewHierarchy builds the full memory system, innermost level last.
func NewHierarchy(hc HierarchyConfig) *Hierarchy {
	h := &Hierarchy{Mem: dram.New(hc.DRAM)}
	h.L3 = New(hc.L3, h.Mem)
	h.L2 = New(hc.L2, h.L3)
	h.L1D = New(hc.L1D, h.L2)
	h.L1I = New(hc.L1I, h.L2)
	h.ITLB = NewTLB(hc.ITLBEntries, hc.TLBWalkLat)
	h.DTLB = NewTLB(hc.DTLBEntries, hc.TLBWalkLat)
	return h
}

// ReadPC performs a demand data read at the given cycle: DTLB translation
// followed by the devirtualized cache walk. It returns the cycle at which
// the value is available.
func (h *Hierarchy) ReadPC(addr, pc uint64, cycle uint64) uint64 {
	return h.L1D.AccessPC(addr, pc, cycle+h.DTLB.Lookup(addr), false, false)
}

// Fetch performs an instruction fetch for the line holding pc: ITLB
// translation followed by the L1I access. It returns the TLB penalty and the
// cycle at which the line is available.
func (h *Hierarchy) Fetch(pc uint64, cycle uint64) (extra, ready uint64) {
	extra = h.ITLB.Lookup(pc)
	return extra, h.L1I.Access(pc, cycle+extra, false, false)
}

// Reset clears every level, TLB and the memory model in place.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.Mem.Reset()
}

// WalkFrontend hands the instruction-side state to s and WalkData the
// data side plus DRAM, split so the checkpoint stream keeps its historical
// section order (front end first, memory system later).
func (h *Hierarchy) WalkFrontend(s *ckpt.Stream) {
	h.L1I.Walk(s)
	h.ITLB.Walk(s)
}

func (h *Hierarchy) WalkData(s *ckpt.Stream) {
	h.L1D.Walk(s)
	h.L2.Walk(s)
	h.L3.Walk(s)
	h.DTLB.Walk(s)
	h.Mem.Walk(s)
}
