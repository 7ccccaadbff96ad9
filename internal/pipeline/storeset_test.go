package pipeline

import (
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/uarch"
)

// aliasPairs is the number of distinct store/load PC pairs aliasSource
// cycles through: each one violates until the store sets learn it.
const aliasPairs = 64

// aliasSource is a stream in which every load reads the word the store of
// the block before it wrote, but each store's address comes from a chain of
// 25-cycle divides while the load's address register is ready at once. The
// scheduler issues the load long before the store resolves its address, so
// the late resolution finds a memory-order violation until the store sets
// pair the two PCs. Each block is
//
//	div   x1 <- x1, x2
//	store [x1] <- x3       (this block's word)
//	load  x4 <- [x5]       (the previous block's word)
//	add   x6 <- x4, x6
//	b     next block
//
// at its own PCs, so the SSIT trains one pair at a time over the first
// aliasPairs blocks and every later pass runs on what it learned. A load
// and the store it waits for are renamed in different blocks, so the LFST
// entry a load reads was often written before the last cycle boundary.
type aliasSource struct {
	n uint64
}

func (s *aliasSource) Next() (uarch.Inst, bool) {
	i := s.n
	s.n++
	block, k := i/5, i%5
	pair := block % aliasPairs
	pc := 0x40_0000 + pair*0x40 + k*4
	addr := 0x80_0000 + pair*64
	in := uarch.Inst{PC: pc, Dst: uarch.RegNone, MemSz: 8, Addr: addr}
	switch k {
	case 0:
		in.Class, in.Dst, in.Result = uarch.ClassIntDiv, uarch.IntReg(1), addr
		in.AddSrc(uarch.IntReg(1))
		in.AddSrc(uarch.IntReg(2))
		in.Addr, in.MemSz = 0, 0
	case 1:
		in.Class = uarch.ClassStore
		in.AddSrc(uarch.IntReg(1))
		in.AddSrc(uarch.IntReg(3))
	case 2:
		in.Class, in.Dst, in.Result = uarch.ClassLoad, uarch.IntReg(4), block
		in.Addr = 0x80_0000 + (block+aliasPairs-1)%aliasPairs*64
		in.AddSrc(uarch.IntReg(5))
	case 3:
		in.Class, in.Dst, in.Result = uarch.ClassIntAlu, uarch.IntReg(6), block*3
		in.AddSrc(uarch.IntReg(4))
		in.AddSrc(uarch.IntReg(6))
		in.Addr, in.MemSz = 0, 0
	case 4:
		next := 0x40_0000 + (block+1)%aliasPairs*0x40
		in.Class, in.BrKind, in.Taken, in.Target = uarch.ClassBranch, uarch.BrUncond, true, next
		in.Addr, in.MemSz = 0, 0
	}
	return in, true
}

// TestAliasSourceTrainsStoreSets pins that aliasSource reaches the
// memory-order machinery the profile workloads never do: squashes from
// violations, and store sets that learn from them.
func TestAliasSourceTrainsStoreSets(t *testing.T) {
	core := New(config.TableI(), &aliasSource{})
	core.Run(20_000)
	if n := core.Stats().MemOrderSquashes; n == 0 {
		t.Error("no memory-order squashes")
	}
	if n := core.ss.Violations; n == 0 {
		t.Error("store sets saw no violations")
	}
	t.Logf("%d memory-order squashes, %d store-set violations, %d merges",
		core.Stats().MemOrderSquashes, core.ss.Violations, core.ss.Merges)
}
