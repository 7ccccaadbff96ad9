package workload

import (
	"slices"

	"rsepsim/internal/uarch"
)

// MemKind enumerates address behaviours.
type MemKind uint8

// Address pattern kinds.
const (
	MSeq     MemKind = iota // sequential walk: base + ((iter-Lag)*Stride) % Bytes
	MRand                   // uniform random within the region
	MPtrRing                // pointer ring initialised in memory (chase loads)
)

// MemSpec declares a memory region and how a slot addresses it. Regions are
// named so several slots (e.g. a store and a later reload) can share one.
type MemSpec struct {
	Region string
	Kind   MemKind
	Bytes  uint64
	Stride uint64
	Lag    uint64 // iterations behind the region walker (store/reload pairs)

	// Hot gives MRand regions temporal locality: this fraction of the
	// accesses lands in the first eighth of the region.
	Hot float64

	// Content describes the values found in a read-only region as a
	// deterministic function of the address, so reloading an address is
	// consistent. nil means the region is read-write through functional
	// memory (stores land there, loads read what was stored).
	Content *ValueSpec

	NodeBytes uint64 // MPtrRing: node size
	Shuffle   bool   // MPtrRing: randomise traversal order (cache-hostile)
}

// SlotSpec declares one static instruction of a kernel body.
type SlotSpec struct {
	Class     uarch.Class
	Val       *ValueSpec // result stream (ALU/FP/move-free loads)
	Mem       *MemSpec   // loads/stores
	Srcs      []int      // producer slot indices (dataflow wiring)
	AddrFrom  int        // slot whose last value is the base address (-1: none)
	AddrOff   uint64
	Skip      int  // branches: slots skipped when taken
	ZeroIdiom bool // recognisable zero idiom (xor x,x,x)
	StoreFrom int  // stores: slot whose value is written (-1: internal stream)
}

// KernelSpec is one loop kernel of a benchmark: a body of slots executed for
// a phase of AvgIters iterations (mean), ending with a backward loop branch.
type KernelSpec struct {
	Name     string
	Weight   float64 // phase-selection weight within the benchmark
	AvgIters int     // mean phase length in iterations
	Slots    []SlotSpec
}

// B builds a kernel body; each method appends a slot and returns its index
// so later slots can reference it as a source.
type B struct{ slots []SlotSpec }

func (b *B) add(s SlotSpec) int {
	b.slots = append(b.slots, s)
	return len(b.slots) - 1
}

// Alu appends an integer ALU op producing val.
func (b *B) Alu(val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassIntAlu, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// Mul appends an integer multiply.
func (b *B) Mul(val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassIntMul, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// Fp appends an FP ALU op.
func (b *B) Fp(val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassFPAlu, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// FpMul appends an FP multiply.
func (b *B) FpMul(val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassFPMul, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// FpDiv appends an FP divide.
func (b *B) FpDiv(val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassFPDiv, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// Move appends a 64-bit register-to-register move of slot src's value (the
// move-elimination target class).
func (b *B) Move(src int) int {
	return b.add(SlotSpec{Class: uarch.ClassMove, Val: Dup(src), Srcs: []int{src}, AddrFrom: -1, StoreFrom: -1})
}

// ZeroIdiom appends an instruction Decode recognises as writing zero.
func (b *B) ZeroIdiom() int {
	return b.add(SlotSpec{Class: uarch.ClassIntAlu, Val: Const(0), ZeroIdiom: true, AddrFrom: -1, StoreFrom: -1})
}

// Load appends a load addressed by mem, reading the region's content.
func (b *B) Load(mem *MemSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassLoad, Mem: mem, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// LoadVal appends a load whose value stream is iteration-ordered (val)
// rather than address-keyed — modelling fields that mutate between visits.
func (b *B) LoadVal(mem *MemSpec, val *ValueSpec, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassLoad, Mem: mem, Val: val, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// Chase appends the pointer-chasing load of a ring region: the address is
// the slot's own previous value (the loaded pointer), serialising the loads.
func (b *B) Chase(mem *MemSpec) int {
	idx := len(b.slots)
	return b.add(SlotSpec{Class: uarch.ClassLoad, Mem: mem, AddrFrom: idx, StoreFrom: -1})
}

// Field appends a load of a field at offset off from the pointer produced by
// slot ptr, with an iteration-ordered value stream.
func (b *B) Field(ptr int, off uint64, val *ValueSpec) int {
	return b.add(SlotSpec{
		Class: uarch.ClassLoad, Val: val,
		AddrFrom: ptr, AddrOff: off, Srcs: []int{ptr}, StoreFrom: -1,
	})
}

// Store appends a store of slot from's value to mem.
func (b *B) Store(mem *MemSpec, from int) int {
	return b.add(SlotSpec{Class: uarch.ClassStore, Mem: mem, Srcs: []int{from}, StoreFrom: from, AddrFrom: -1})
}

// Br appends a conditional branch taken when pattern yields nonzero,
// skipping the next skip slots when taken.
func (b *B) Br(pattern *ValueSpec, skip int, srcs ...int) int {
	return b.add(SlotSpec{Class: uarch.ClassBranch, Val: pattern, Skip: skip, Srcs: srcs, AddrFrom: -1, StoreFrom: -1})
}

// Wire appends extra source slots to an already-built slot. Referencing a
// later slot creates a loop-carried dependency (the value produced in the
// previous iteration).
func (b *B) Wire(slot int, srcs ...int) {
	b.slots[slot].Srcs = append(b.slots[slot].Srcs, srcs...)
}

// Kernel assembles a KernelSpec from a builder function.
func Kernel(name string, weight float64, avgIters int, build func(b *B)) KernelSpec {
	var b B
	build(&b)
	return KernelSpec{Name: name, Weight: weight, AvgIters: avgIters, Slots: b.slots}
}

// ---- compiled runtime representation ----

type slot struct {
	spec SlotSpec
	pc   uint64
	dst  uarch.Reg
	srcs []uarch.Reg
	val  valueSeq // compiled spec.Val; unused when spec.Val is nil
	reg  *region  // resolved memory region
}

type kernel struct {
	spec     KernelSpec
	pcBase   uint64
	loopPC   uint64
	slots    []slot
	lastVals []uint64
	regions  []*region
}

// Integer destinations cycle through x4..x27, FP through f2..f29; x0..x3 and
// f0/f1 are left as scratch so kernels never collide on their own sources.
func destFor(class uarch.Class, i int) uarch.Reg {
	switch class {
	case uarch.ClassFPAlu, uarch.ClassFPMul, uarch.ClassFPDiv:
		return uarch.FPReg(2 + i%28)
	case uarch.ClassStore, uarch.ClassBranch:
		return uarch.RegNone
	default:
		return uarch.IntReg(4 + i%24)
	}
}

// compile lays out spec at pcBase in k, reusing the slot, source, value
// and region-list storage of whatever k held before, and drawing from g's
// RNG in slot order.
func (k *kernel) compile(spec KernelSpec, pcBase uint64, g *Gen) {
	k.spec = spec
	k.pcBase = pcBase
	k.loopPC = pcBase + uint64(4*len(spec.Slots))
	k.lastVals = resize(k.lastVals, len(spec.Slots))
	clear(k.lastVals)
	k.regions = k.regions[:0]
	k.slots = resize(k.slots, len(spec.Slots))
	for i := range spec.Slots {
		ss := &spec.Slots[i]
		sl := &k.slots[i]
		sl.spec, sl.pc, sl.dst = *ss, pcBase+uint64(4*i), destFor(ss.Class, i)
		sl.srcs, sl.reg = sl.srcs[:0], nil
		if ss.Val != nil {
			sl.val.compile(ss.Val, g.rng)
		}
		if ss.Mem != nil {
			sl.reg = g.regionFor(ss.Mem, spec.Name)
			if !slices.Contains(k.regions, sl.reg) {
				k.regions = append(k.regions, sl.reg)
			}
		}
		for _, src := range ss.Srcs {
			if src >= 0 && src < len(spec.Slots) {
				if d := destFor(spec.Slots[src].Class, src); d != uarch.RegNone {
					sl.srcs = append(sl.srcs, d)
				}
			}
		}
	}
	// Seed chase pointers with the ring entry point.
	for i := range k.slots {
		sl := &k.slots[i]
		if sl.spec.AddrFrom == i && sl.reg != nil {
			k.lastVals[i] = sl.reg.entry
		}
	}
}

// emit appends one loop iteration of the kernel to g's queue. continueLoop
// sets the direction of the closing backward branch.
func (k *kernel) emit(g *Gen, continueLoop bool) {
	i := 0
	for i < len(k.slots) {
		sl := &k.slots[i]
		ss := &sl.spec
		switch ss.Class {
		case uarch.ClassBranch:
			taken := sl.val.next(g.rng, k.lastVals) != 0
			skip := ss.Skip
			if skip <= 0 || i+1+skip > len(k.slots) {
				skip = 0
				taken = false
			}
			target := sl.pc + uint64(4*(1+skip))
			g.emitBranch(sl, taken, target)
			if taken {
				i += 1 + skip
			} else {
				i++
			}
			continue
		case uarch.ClassLoad:
			addr := k.loadAddr(g, i, sl)
			var v uint64
			switch {
			case ss.Val != nil:
				v = sl.val.next(g.rng, k.lastVals)
			case sl.reg != nil:
				v = sl.reg.valueAt(g, addr)
			default:
				v = g.mem.Read64(addr)
			}
			k.lastVals[i] = v
			g.emitLoad(sl, addr, v)
		case uarch.ClassStore:
			addr := sl.reg.nextAddr(g, 0)
			var v uint64
			if ss.StoreFrom >= 0 {
				v = k.lastVals[ss.StoreFrom]
			} else {
				v = g.rng.Uint64()
			}
			if sl.reg.writable() {
				g.mem.Write64(addr, v)
			}
			g.emitStore(sl, addr, v)
		default:
			v := sl.val.next(g.rng, k.lastVals)
			k.lastVals[i] = v
			g.emitOp(sl, v)
		}
		i++
	}
	// Advance region walkers once per iteration.
	for _, r := range k.regions {
		r.iter++
	}
	g.emitLoopBranch(k, continueLoop)
}

func (k *kernel) loadAddr(g *Gen, i int, sl *slot) uint64 {
	if sl.spec.AddrFrom >= 0 {
		return k.lastVals[sl.spec.AddrFrom] + sl.spec.AddrOff
	}
	if sl.reg != nil {
		return sl.reg.nextAddr(g, sl.spec.Mem.Lag)
	}
	return g.scratchAddr
}
