package workload

import (
	"fmt"
	"sort"
	"sync"
)

// This file defines the 29 benchmark models, one per SPEC CPU2006 benchmark
// the paper evaluates. Each model is calibrated to the per-benchmark
// behaviour the paper reports:
//
//   - Figure 1: fraction of results that are zero / already live in the PRF
//     (zeusmp and cactusADM near 20% zeros; most benchmarks ~5%).
//   - Figure 5: which mechanism covers the benchmark (mcf almost only loads;
//     dealII mostly non-loads; perlbench's RSEP coverage nested inside VP's).
//   - Figure 4/7 ordering: RSEP wins in mcf/dealII/hmmer/libquantum/omnetpp/
//     xalancbmk; VP wins in perlbench/wrf/xalancbmk/zeusmp/gromacs.
//   - §VI-A2: hmmer and xalancbmk need deep FIFO histories; everyone else is
//     served by ~32 entries.
//   - §IV-D2: lbm and gamess frequently retire 8 eligible instructions.
//
// The calibration levers: Const values are captured by both predictors;
// Stride only by VP; Periodic sets only by distance prediction; SmallSet and
// Rand by neither (SmallSet additionally produces the chance-match noise of
// §VI-A2); Dup creates cross-chain equality; ZeroBurst produces Figure 1's
// zeros without regularity; pair distance grows with the number of
// result-producing slots between the paired instructions.

// registry maps each name to its profile's builder; shared maps it to the
// same builder run once, on first use, for the life of the process.
var (
	registry = map[string]func() *Profile{}
	shared   = map[string]func() *Profile{}
)

func register(name string, f func() *Profile) {
	registry[name] = f
	shared[name] = sync.OnceValue(f)
}

// Names returns the benchmark names in SPEC order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named benchmark profile. Each profile is built once per
// process and shared by every caller, which must not modify it; a generator
// only reads its profile.
func ByName(name string) (*Profile, error) {
	f, ok := shared[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return f(), nil
}

// MustByName is ByName for tests and examples.
func MustByName(name string) *Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// chainInt appends n chained integer ALU ops with wide random results
// (neither predictor captures them) and returns the last slot.
func chainInt(b *B, n, from int, width uint) int {
	last := from
	for j := 0; j < n; j++ {
		if last >= 0 {
			last = b.Alu(Rand(width), last)
		} else {
			last = b.Alu(Rand(width))
		}
	}
	return last
}

// chainFP is chainInt for FP ops.
func chainFP(b *B, n, from int, width uint) int {
	last := from
	for j := 0; j < n; j++ {
		if last >= 0 {
			last = b.Fp(Rand(width), last)
		} else {
			last = b.Fp(Rand(width))
		}
	}
	return last
}

const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

func init() {
	register("perlbench", perlbench)
	register("bzip2", bzip2)
	register("gcc", gcc)
	register("bwaves", bwaves)
	register("gamess", gamess)
	register("mcf", mcf)
	register("milc", milc)
	register("zeusmp", zeusmp)
	register("gromacs", gromacs)
	register("cactusADM", cactusADM)
	register("leslie3d", leslie3d)
	register("namd", namd)
	register("gobmk", gobmk)
	register("dealII", dealII)
	register("soplex", soplex)
	register("povray", povray)
	register("calculix", calculix)
	register("hmmer", hmmer)
	register("sjeng", sjeng)
	register("GemsFDTD", gemsFDTD)
	register("libquantum", libquantum)
	register("h264ref", h264ref)
	register("tonto", tonto)
	register("lbm", lbm)
	register("omnetpp", omnetpp)
	register("astar", astar)
	register("wrf", wrf)
	register("sphinx3", sphinx3)
	register("xalancbmk", xalancbmk)
}

// perlbench: interpreter dispatch. Values are constants and strides, so VP
// captures everything RSEP does and more — the one benchmark where the
// combination adds nothing over VP alone (§VI-A1).
func perlbench() *Profile {
	interp := Kernel("interp", 0.6, 200, func(b *B) {
		op := b.Load(&MemSpec{Region: "optab", Kind: MRand, Bytes: 32 * kb, Hot: 0.7,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 12), Width: 6}})
		b.ZeroIdiom()
		c1 := b.Alu(Const(0x20), op) // opcode class: constant, both predictors capture it
		b.Br(Bern(0.12), 2, c1)      // dispatch branch compares the class
		b.Alu(Const(0xff), c1)
		b.Alu(Stride(8, 8), c1)
		sp := b.Alu(Stride(0x8000, 8)) // stack pointer walks
		st := b.Alu(Stride(1, 1), sp)  // counters stride
		b.Store(&MemSpec{Region: "stack", Kind: MSeq, Bytes: 64 * kb, Stride: 8}, st)
		l := b.Load(&MemSpec{Region: "stack", Kind: MSeq, Bytes: 64 * kb, Stride: 8, Lag: 2}, sp)
		chainInt(b, 4, l, 48)
		b.Br(Periodic(1, 1, 1, 0), 0, c1)
	})
	hash := Kernel("hash", 0.4, 150, func(b *B) {
		k := chainInt(b, 2, -1, 32)
		h := b.Load(&MemSpec{Region: "tab", Kind: MRand, Bytes: 128 * kb, Hot: 0.8,
			Content: Rand(32)}, k)
		b.Br(Bern(0.1), 1, h)
		b.Alu(Const(1), h)
		b.Alu(Stride(0, 16))
		chainInt(b, 5, h, 40)
	})
	return &Profile{Name: "perlbench", Kernels: []KernelSpec{interp, hash}}
}

// bzip2: block-sorting compression. Equality pairs exist but the producer is
// often a slow (missing) load, so sharing can lengthen the critical path —
// the behaviour behind the Figure 6 sampling-threshold-15 slowdown.
func bzip2() *Profile {
	bwt := Kernel("bwt", 0.7, 300, func(b *B) {
		// Slow producer: load missing in L2 much of the time.
		slow := b.Load(&MemSpec{Region: "block", Kind: MRand, Bytes: 4 * mb, Hot: 0.6,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 6), Width: 8}})
		idx := chainInt(b, 3, -1, 20)
		// The pair: recomputes the loaded symbol from fast inputs.
		b.Alu(Dup(slow), idx)
		b.Br(Bern(0.22), 1, idx)
		b.Alu(Const(256), idx)
		cnt := b.Alu(Stride(0, 1))
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 1 * mb, Stride: 8}, cnt)
		chainInt(b, 6, idx, 32)
		b.Br(Periodic(1, 1, 0), 0, slow)
	})
	huff := Kernel("huff", 0.3, 200, func(b *B) {
		s := b.Load(&MemSpec{Region: "freq", Kind: MSeq, Bytes: 16 * kb, Stride: 8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 8), Width: 12}})
		b.Br(Bern(0.12), 2, s)
		b.Alu(Periodic(3, 5, 3, 9), s)
		b.Alu(Const(7))
		chainInt(b, 4, s, 24)
	})
	return &Profile{Name: "bzip2", Kernels: []KernelSpec{bwt, huff}}
}

// gcc: compiler passes — a broad mixture with moderate everything.
func gcc() *Profile {
	rtl := Kernel("rtl", 0.5, 120, func(b *B) {
		b.ZeroIdiom()
		n := b.Load(&MemSpec{Region: "insns", Kind: MRand, Bytes: 512 * kb, Hot: 0.8, Content: Rand(40)})
		b.Br(Bern(0.18), 2, n)
		b.Alu(Const(4), n)
		b.Move(n)
		k := b.Alu(Stride(0x1000, 16))
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 256 * kb, Stride: 8}, k)
		chainInt(b, 5, n, 40)
		b.Br(Periodic(1, 0, 1, 1), 0, n)
	})
	alloc := Kernel("alloc", 0.3, 100, func(b *B) {
		v := b.Load(&MemSpec{Region: "pool", Kind: MSeq, Bytes: 1 * mb, Stride: 64,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.10, Burst: 0.6, Width: 32}})
		b.Alu(Const(8), v)
		p := b.Alu(Stride(0x4000, 64))
		b.Store(&MemSpec{Region: "heap", Kind: MSeq, Bytes: 2 * mb, Stride: 64}, p)
		chainInt(b, 4, v, 36)
	})
	fold := Kernel("fold", 0.2, 80, func(b *B) {
		a := b.Alu(SmallSet(5, 16))
		bb := b.Alu(Dup(a), a)
		b.Br(Bern(0.15), 1, bb)
		b.Alu(Const(0))
		chainInt(b, 3, bb, 28)
	})
	return &Profile{Name: "gcc", Kernels: []KernelSpec{rtl, alloc, fold}}
}

// bwaves: blast-wave solver — streaming FP with strided values; VP-friendly,
// memory bound, little equality.
func bwaves() *Profile {
	sweep := Kernel("sweep", 1, 500, func(b *B) {
		x := b.Load(&MemSpec{Region: "u", Kind: MSeq, Bytes: 24 * mb, Stride: 8,
			Content: Rand(52)})
		y := b.Load(&MemSpec{Region: "v", Kind: MSeq, Bytes: 24 * mb, Stride: 8,
			Content: Rand(52)})
		b.Alu(Stride(0x100, 24)) // grid index arithmetic: VP-predictable
		m := b.FpMul(Rand(52), x, y)
		a := b.Fp(Rand(52), m)
		b.Store(&MemSpec{Region: "w", Kind: MSeq, Bytes: 24 * mb, Stride: 8}, a)
		i := b.Alu(Stride(0, 8))
		chainFP(b, 5, a, 52)
		_ = i
	})
	return &Profile{Name: "bwaves", Kernels: []KernelSpec{sweep}}
}

// gamess: quantum chemistry. Regularly-zero integrals give zero prediction a
// visible (if small) win; wide independent FP chains retire 8-wide often
// (§IV-D2).
func gamess() *Profile {
	integrals := Kernel("integrals", 0.7, 250, func(b *B) {
		// Screened integrals: regularly zero.
		z1 := b.Fp(Const(0))
		z2 := b.Fp(Const(0))
		// Independent parallel chains -> wide commit groups.
		a := b.Fp(Rand(52))
		c := b.Fp(Rand(52))
		d := b.Fp(Rand(52))
		e := b.Fp(Rand(52))
		b.FpMul(Rand(52), a, c)
		b.FpMul(Rand(52), d, e)
		acc1 := b.Fp(Rand(52), z1)
		b.Fp(Rand(52), z2, acc1)
		i := b.Alu(Stride(0, 1))
		b.Br(Periodic(1, 1, 1, 1, 0), 0, i)
	})
	scf := Kernel("scf", 0.3, 200, func(b *B) {
		x := b.Load(&MemSpec{Region: "dm", Kind: MSeq, Bytes: 2 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.15, Burst: 0.5, Width: 52}})
		m := b.FpMul(Rand(52), x)
		b.Fp(Const(0), m)
		chainFP(b, 6, m, 52)
	})
	return &Profile{Name: "gamess", Kernels: []KernelSpec{integrals, scf}}
}

// mcf: network simplex. Pointer chasing over a DRAM-resident ring with
// alternating node fields: the loads dominate RSEP coverage (Figure 5) and
// sit on the critical path, so equality prediction pays off far more than
// value prediction (Figure 4).
func mcf() *Profile {
	chase := Kernel("chase", 0.75, 2000, func(b *B) {
		// Four independent arc lists traversed in parallel (the network
		// simplex walks several trees at once), giving moderate MLP over
		// a DRAM-resident working set.
		p0 := b.Chase(&MemSpec{Region: "arcs0", Kind: MPtrRing, Bytes: 2 * mb, NodeBytes: 64, Shuffle: true})
		p1 := b.Chase(&MemSpec{Region: "arcs1", Kind: MPtrRing, Bytes: 2 * mb, NodeBytes: 64, Shuffle: true})
		p2 := b.Chase(&MemSpec{Region: "arcs2", Kind: MPtrRing, Bytes: 2 * mb, NodeBytes: 64, Shuffle: true})
		p3 := b.Chase(&MemSpec{Region: "arcs3", Kind: MPtrRing, Bytes: 2 * mb, NodeBytes: 64, Shuffle: true})
		// Fields alternate between a couple of values per visit:
		// distance-predictable (period x producers), not value
		// predictable. The loads sit on the critical path.
		cost := b.Field(p0, 8, Periodic(3, 12))
		flow := b.Field(p1, 16, SmallSet(24, 30))
		_ = flow
		pot := b.Field(p2, 24, SmallSet(16, 22))
		dep := b.Field(p3, 8, SmallSet(12, 26))
		s := b.Alu(Rand(32), cost)
		b.Br(Bern(0.04), 1, s)
		b.Alu(Const(1), pot)
		red := b.Alu(Rand(34), s, dep)
		b.Store(&MemSpec{Region: "delta", Kind: MSeq, Bytes: 512 * kb, Stride: 8}, red)
		b.Br(Periodic(1, 1, 1, 1, 1, 0), 0, cost)
	})
	price := Kernel("price", 0.25, 600, func(b *B) {
		v := b.Load(&MemSpec{Region: "nodes", Kind: MSeq, Bytes: 8 * mb, Stride: 64,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.12, Burst: 0.4, Width: 30}})
		b.Alu(Periodic(2, 2, 7), v)
		i := b.Alu(Stride(0, 64))
		chainInt(b, 3, v, 30)
		_ = i
	})
	return &Profile{Name: "mcf", Kernels: []KernelSpec{chase, price}}
}

// milc: lattice QCD — SU(3) matrix kernels, streaming, moderately zero-rich.
func milc() *Profile {
	su3 := Kernel("su3", 1, 400, func(b *B) {
		x := b.Load(&MemSpec{Region: "links", Kind: MSeq, Bytes: 16 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.08, Burst: 0.5, Width: 52}})
		y := b.Load(&MemSpec{Region: "site", Kind: MSeq, Bytes: 16 * mb, Stride: 8,
			Content: Rand(52)})
		m1 := b.FpMul(Rand(52), x, y)
		m2 := b.FpMul(Rand(52), x, y)
		a := b.Fp(Rand(52), m1, m2)
		b.Store(&MemSpec{Region: "res", Kind: MSeq, Bytes: 16 * mb, Stride: 8}, a)
		chainFP(b, 6, a, 52)
	})
	return &Profile{Name: "milc", Kernels: []KernelSpec{su3}}
}

// zeusmp: astrophysical CFD. ~20% zero results (Figure 1 peak) but bursty
// and irregular, so zero prediction gains nothing; strides give VP a small
// edge over RSEP.
func zeusmp() *Profile {
	stencil := Kernel("stencil", 1, 350, func(b *B) {
		x := b.Load(&MemSpec{Region: "d", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.3, Burst: 0.75, Width: 52}})
		y := b.Load(&MemSpec{Region: "e", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.25, Burst: 0.7, Width: 52}})
		z := b.Fp(ZeroBurst(0.22, 0.7, 52), x, y)
		w := b.Fp(ZeroBurst(0.2, 0.7, 52), z)
		i := b.Alu(Stride(0, 8))
		j := b.Alu(Stride(0x100, 8), i)
		b.Store(&MemSpec{Region: "o", Kind: MSeq, Bytes: 20 * mb, Stride: 8}, w)
		b.Fp(ZeroBurst(0.2, 0.6, 52), w)
		chainFP(b, 3, z, 52)
		_ = j
	})
	return &Profile{Name: "zeusmp", Kernels: []KernelSpec{stencil}}
}

// gromacs: molecular dynamics — strided neighbour walks; VP slightly ahead.
func gromacs() *Profile {
	nb := Kernel("nonbonded", 1, 300, func(b *B) {
		i := b.Alu(Stride(0, 4))
		x := b.Load(&MemSpec{Region: "pos", Kind: MSeq, Bytes: 4 * mb, Stride: 24,
			Content: Stride(0x1000, 24)}, i)
		d := b.FpMul(Rand(52), x)
		r := b.FpDiv(Rand(52), d)
		f := b.FpMul(Rand(52), r)
		b.Store(&MemSpec{Region: "force", Kind: MSeq, Bytes: 4 * mb, Stride: 24}, f)
		chainFP(b, 4, f, 52)
		b.Br(Periodic(1, 1, 1, 0), 0, i)
	})
	return &Profile{Name: "gromacs", Kernels: []KernelSpec{nb}}
}

// cactusADM: numerical relativity — like zeusmp, zero-rich but irregular,
// deep FP dependency chains.
func cactusADM() *Profile {
	adm := Kernel("adm", 1, 300, func(b *B) {
		g1 := b.Load(&MemSpec{Region: "g", Kind: MSeq, Bytes: 24 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.3, Burst: 0.8, Width: 52}})
		g2 := b.Load(&MemSpec{Region: "k", Kind: MSeq, Bytes: 24 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.28, Burst: 0.75, Width: 52}})
		c := b.FpMul(ZeroBurst(0.2, 0.7, 52), g1, g2)
		c2 := b.Fp(ZeroBurst(0.18, 0.6, 52), c)
		c3 := b.FpMul(Rand(52), c2)
		c4 := b.Fp(ZeroBurst(0.15, 0.6, 52), c3)
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 24 * mb, Stride: 8}, c4)
		chainFP(b, 5, c4, 52)
	})
	return &Profile{Name: "cactusADM", Kernels: []KernelSpec{adm}}
}

// leslie3d: CFD streaming; memory bound, modest value behaviour.
func leslie3d() *Profile {
	flux := Kernel("flux", 1, 350, func(b *B) {
		x := b.Load(&MemSpec{Region: "q", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: Stride(0x10, 0x30)})
		y := b.Load(&MemSpec{Region: "r", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.07, Burst: 0.4, Width: 52}})
		s := b.Fp(Rand(52), x, y)
		m := b.FpMul(Rand(52), s)
		b.Store(&MemSpec{Region: "f", Kind: MSeq, Bytes: 20 * mb, Stride: 8}, m)
		chainFP(b, 5, m, 52)
	})
	return &Profile{Name: "leslie3d", Kernels: []KernelSpec{flux}}
}

// namd: molecular dynamics, compute bound, well-predicted branches, little
// exploitable value behaviour.
func namd() *Profile {
	forces := Kernel("forces", 1, 280, func(b *B) {
		i := b.Alu(Stride(0, 16))
		x := b.Load(&MemSpec{Region: "atoms", Kind: MSeq, Bytes: 2 * mb, Stride: 16,
			Content: Rand(52)}, i)
		d := b.FpMul(Rand(52), x)
		e := b.FpMul(Rand(52), d)
		f := b.Fp(Rand(52), e)
		b.Store(&MemSpec{Region: "f", Kind: MSeq, Bytes: 2 * mb, Stride: 16}, f)
		chainFP(b, 6, f, 52)
		b.Br(Periodic(1, 1, 1, 1, 1, 1, 0), 0, i)
	})
	return &Profile{Name: "namd", Kernels: []KernelSpec{forces}}
}

// gobmk: go-playing AI — hard data-dependent branches, noisy small-set
// values (chance matches, little stable distance).
func gobmk() *Profile {
	patterns := Kernel("patterns", 1, 90, func(b *B) {
		v := b.Load(&MemSpec{Region: "board", Kind: MRand, Bytes: 64 * kb, Hot: 0.7,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 3), Width: 2}})
		b.Br(Bern(0.35), 2, v)
		b.Alu(SmallSet(4, 8), v)
		b.ZeroIdiom()
		b.Alu(SmallSet(4, 8))
		l := b.Load(&MemSpec{Region: "hash", Kind: MRand, Bytes: 256 * kb, Hot: 0.8, Content: Rand(48)})
		b.Br(Bern(0.3), 1, l)
		b.Alu(Const(0))
		chainInt(b, 5, v, 32)
		b.Br(Bern(0.72), 0, l)
	})
	return &Profile{Name: "gobmk", Kernels: []KernelSpec{patterns}}
}

// dealII: finite elements. Duplicate computation across inlined call sites
// creates stable non-load equality (Figure 5: mostly non-load coverage);
// plenty of register moves for move elimination. VP cannot capture the
// wide-value duplicates, so RSEP clearly wins (Figure 4).
func dealII() *Profile {
	assemble := Kernel("assemble", 0.7, 220, func(b *B) {
		base := b.Load(&MemSpec{Region: "dofs", Kind: MSeq, Bytes: 3 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 40), Width: 40}})
		a1 := b.Fp(Rand(52), base)
		a2 := b.FpMul(Rand(52), a1)
		// The same shape function evaluated again on a parallel chain.
		d1 := b.Fp(Dup(a1), base)
		d2 := b.FpMul(Dup(a2), d1)
		b.Move(base)
		b.Move(a2)
		j := b.Alu(Stride(0, 8))
		b.Store(&MemSpec{Region: "mat", Kind: MSeq, Bytes: 3 * mb, Stride: 8}, d2)
		chainFP(b, 3, d2, 52)
		b.Br(Periodic(1, 1, 1, 0), 0, j)
	})
	solve := Kernel("solve", 0.3, 180, func(b *B) {
		x := b.Load(&MemSpec{Region: "vec", Kind: MSeq, Bytes: 2 * mb, Stride: 8,
			Content: Rand(52)})
		m := b.FpMul(Rand(52), x)
		dup := b.Fp(Dup(m), x)
		b.Move(m)
		b.Store(&MemSpec{Region: "res", Kind: MSeq, Bytes: 2 * mb, Stride: 8}, dup)
		chainFP(b, 4, m, 52)
	})
	return &Profile{Name: "dealII", Kernels: []KernelSpec{assemble, solve}}
}

// soplex: LP simplex — store/reload pairs (the SMB-style def-store-load-use
// chains RSEP subsumes, §IV-H2) plus strided sparse walks.
func soplex() *Profile {
	pivot := Kernel("pivot", 1, 200, func(b *B) {
		v := b.Fp(Rand(52))
		b.Store(&MemSpec{Region: "work", Kind: MSeq, Bytes: 1 * mb, Stride: 8}, v)
		// Reload what was stored two iterations ago: equality with the
		// producer at a stable distance.
		r := b.Load(&MemSpec{Region: "work", Kind: MSeq, Bytes: 1 * mb, Stride: 8, Lag: 2})
		i := b.Alu(Stride(0, 4))
		x := b.Load(&MemSpec{Region: "cols", Kind: MSeq, Bytes: 6 * mb, Stride: 8,
			Content: Stride(8, 8)}, i)
		m := b.FpMul(Rand(52), r, x)
		chainFP(b, 4, m, 52)
		b.Br(Periodic(1, 1, 0), 0, i)
	})
	return &Profile{Name: "soplex", Kernels: []KernelSpec{pivot}}
}

// povray: ray tracing — irregular FP, moderately branchy, little to predict.
func povray() *Profile {
	tracing := Kernel("trace", 1, 150, func(b *B) {
		o := b.Fp(Rand(52))
		d := b.FpMul(Rand(52), o)
		t := b.FpDiv(Rand(52), d)
		b.Br(Bern(0.2), 2, t)
		b.Fp(Rand(52), t)
		b.FpMul(Rand(52), t)
		n := b.Load(&MemSpec{Region: "objs", Kind: MRand, Bytes: 512 * kb, Hot: 0.8, Content: Rand(52)})
		chainFP(b, 5, n, 52)
		b.Br(Bern(0.82), 0, t)
	})
	return &Profile{Name: "povray", Kernels: []KernelSpec{tracing}}
}

// calculix: structural FE — stencil/reduction mixture.
func calculix() *Profile {
	fe := Kernel("fe", 1, 250, func(b *B) {
		x := b.Load(&MemSpec{Region: "el", Kind: MSeq, Bytes: 8 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.08, Burst: 0.5, Width: 52}})
		m := b.FpMul(Rand(52), x)
		a := b.Fp(Rand(52), m)
		dup := b.Fp(Dup(m), x)
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 8 * mb, Stride: 8}, a)
		chainFP(b, 5, dup, 52)
	})
	return &Profile{Name: "calculix", Kernels: []KernelSpec{fe}}
}

// hmmer: profile HMM search. A long loop body of match/insert/delete score
// updates drawn from per-row constants: dense equality at long distances —
// the benchmark that needs a deep FIFO history (§VI-A2) — with both load and
// non-load coverage.
func hmmer() *Profile {
	viterbi := Kernel("viterbi", 1, 400, func(b *B) {
		seed := b.Alu(SmallSet(9, 14))
		prev := seed
		// 12 DP cells; every fourth sits on a loop-carried multiply
		// recurrence (moderate latency bound), and every third draws
		// from the periodic per-row score table: stable equality at
		// ~2-iteration distances — the long pair distances that need a
		// deep FIFO history (§VI-A2).
		for c := 0; c < 12; c++ {
			m := b.LoadVal(&MemSpec{Region: "score", Kind: MSeq, Bytes: 256 * kb, Stride: 8},
				Periodic(uint64(10+c), uint64(20+c)))
			var x int
			if c%3 == 0 {
				x = b.Alu(Periodic(uint64(c), uint64(c+7)), m, prev)
			} else {
				x = b.Alu(SmallSet(12, 18), m)
			}
			if c%4 == 0 {
				prev = b.Mul(Rand(22), x, prev)
			} else {
				b.Alu(Rand(22), x)
			}
		}
		b.Br(Periodic(1, 1, 1, 1, 0), 0, prev)
		b.Store(&MemSpec{Region: "dp", Kind: MSeq, Bytes: 256 * kb, Stride: 8}, prev)
		// Loop-carried: the first cell consumes the previous iteration's
		// final score.
		b.Wire(seed, prev)
	})
	return &Profile{Name: "hmmer", Kernels: []KernelSpec{viterbi}}
}

// sjeng: chess search — branch-limited with noisy values.
func sjeng() *Profile {
	search := Kernel("search", 1, 100, func(b *B) {
		m := b.Load(&MemSpec{Region: "tt", Kind: MRand, Bytes: 1 * mb, Hot: 0.85, Content: Rand(48)})
		b.Br(Bern(0.32), 2, m)
		b.Alu(SmallSet(6, 16), m)
		b.Alu(Const(1), m)
		e := chainInt(b, 4, m, 24)
		b.Br(Bern(0.28), 1, e)
		b.Alu(SmallSet(3, 10), e)
		b.Br(Bern(0.75), 0, e)
	})
	return &Profile{Name: "sjeng", Kernels: []KernelSpec{search}}
}

// GemsFDTD: electromagnetic solver — streaming stencil, moderate zeros.
func gemsFDTD() *Profile {
	fdtd := Kernel("fdtd", 1, 300, func(b *B) {
		hx := b.Load(&MemSpec{Region: "hx", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KZeroBurst, ZeroP: 0.12, Burst: 0.6, Width: 52}})
		hy := b.Load(&MemSpec{Region: "hy", Kind: MSeq, Bytes: 20 * mb, Stride: 8,
			Content: Rand(52)})
		e := b.Fp(Rand(52), hx, hy)
		e2 := b.FpMul(Rand(52), e)
		b.Store(&MemSpec{Region: "ez", Kind: MSeq, Bytes: 20 * mb, Stride: 8}, e2)
		chainFP(b, 4, e2, 52)
	})
	return &Profile{Name: "GemsFDTD", Kernels: []KernelSpec{fdtd}}
}

// libquantum: quantum simulation — regular gate structure: regularly-zero
// amplitudes (zero prediction works here, §VI-A1), stable per-slot constants
// (distance-predictable), streaming over the state vector.
func libquantum() *Profile {
	gate := Kernel("toffoli", 1, 600, func(b *B) {
		// Amplitude stream: half the entries are zero, alternating —
		// distance-predictable (period 2), too irregular for the zero
		// predictor's 255-confidence gate, and rich in Figure 1 zeros.
		st := b.Load(&MemSpec{Region: "state", Kind: MSeq, Bytes: 16 * mb, Stride: 8,
			Content: Periodic(0, 0x3fe0_0000_0000_0000, 0, 0x3fd0_0000_0000_0000)})
		mask := b.Alu(Const(0x200), st)
		z := b.Alu(Const(0), mask) // control bit clear: regularly zero
		t := b.Alu(SmallSet(14, 20), st)
		b.Store(&MemSpec{Region: "state2", Kind: MSeq, Bytes: 16 * mb, Stride: 8}, t)
		i := b.Alu(Stride(0, 16))
		b.Alu(Periodic(0x10, 0x30), i)
		chainInt(b, 2, t, 16)
		b.Br(Periodic(1, 1, 1, 1, 1, 1, 1, 0), 0, z)
	})
	return &Profile{Name: "libquantum", Kernels: []KernelSpec{gate}}
}

// h264ref: video encoding — state-machine behaviour where skip branches
// correlate with periodic state, rewarding history-indexed predictors.
func h264ref() *Profile {
	sad := Kernel("sad", 0.6, 200, func(b *B) {
		p := b.Load(&MemSpec{Region: "ref", Kind: MSeq, Bytes: 4 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 16), Width: 8}})
		c := b.Load(&MemSpec{Region: "cur", Kind: MSeq, Bytes: 256 * kb, Stride: 8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 16), Width: 8}})
		b.ZeroIdiom()
		d := b.Alu(SmallSet(24, 10), p, c)
		acc := b.Alu(Rand(16), d)
		b.Br(Periodic(0, 0, 1), 2, acc) // mode branch follows the state period
		b.Alu(Periodic(7, 9), acc)
		b.Alu(Const(16))
		chainInt(b, 4, acc, 20)
	})
	dct := Kernel("dct", 0.4, 150, func(b *B) {
		x := b.Alu(SmallSet(12, 12))
		y := b.Mul(Rand(24), x)
		z := b.Alu(SmallSet(8, 12), y)
		b.Store(&MemSpec{Region: "coef", Kind: MSeq, Bytes: 128 * kb, Stride: 8}, z)
		chainInt(b, 5, z, 24)
	})
	return &Profile{Name: "h264ref", Kernels: []KernelSpec{sad, dct}}
}

// tonto: quantum chemistry — FP-heavy with little exploitable structure.
func tonto() *Profile {
	scf := Kernel("scf", 1, 220, func(b *B) {
		x := b.Load(&MemSpec{Region: "ints", Kind: MSeq, Bytes: 6 * mb, Stride: 8,
			Content: Rand(52)})
		m := b.FpMul(Rand(52), x)
		a := b.Fp(Rand(52), m)
		d := b.FpDiv(Rand(52), a)
		b.Store(&MemSpec{Region: "fock", Kind: MSeq, Bytes: 6 * mb, Stride: 8}, d)
		chainFP(b, 5, a, 52)
	})
	return &Profile{Name: "tonto", Kernels: []KernelSpec{scf}}
}

// lbm: lattice Boltzmann — wide independent streaming updates: the highest
// sustained commit width (§IV-D2 notes lbm retires 8 eligible instructions
// in >25% of groups).
func lbm() *Profile {
	collide := Kernel("collide", 1, 500, func(b *B) {
		var cells [4]int
		for d := 0; d < 4; d++ {
			cells[d] = b.Load(&MemSpec{Region: fmt.Sprintf("f%d", d), Kind: MSeq,
				Bytes: 16 * mb, Stride: 8, Content: Rand(52)})
		}
		// All collision arithmetic first, stores after: long runs of
		// consecutive register producers retire 8-wide (§IV-D2).
		var outs [4]int
		for d := 0; d < 4; d++ {
			m := b.FpMul(Rand(52), cells[d])
			outs[d] = b.Fp(Rand(52), m)
		}
		for d := 0; d < 4; d++ {
			b.Store(&MemSpec{Region: fmt.Sprintf("g%d", d), Kind: MSeq,
				Bytes: 16 * mb, Stride: 8}, outs[d])
		}
		i := b.Alu(Stride(0, 8))
		_ = i
	})
	return &Profile{Name: "lbm", Kernels: []KernelSpec{collide}}
}

// omnetpp: discrete event simulation — event-object chasing with periodic
// kind/priority fields: RSEP clearly ahead of VP (Figure 4).
func omnetpp() *Profile {
	events := Kernel("events", 0.8, 500, func(b *B) {
		p := b.Chase(&MemSpec{Region: "heap", Kind: MPtrRing, Bytes: 256 * kb,
			NodeBytes: 64, Shuffle: true})
		kind := b.Field(p, 8, SmallSet(10, 16))
		prio := b.Field(p, 16, Periodic(0, 1))
		t := b.Field(p, 24, Rand(40))
		b.Br(Bern(0.1), 1, kind)
		b.Alu(Const(3), kind)
		s := b.Alu(Periodic(4, 4, 11), prio)
		b.Store(&MemSpec{Region: "stats", Kind: MSeq, Bytes: 256 * kb, Stride: 8}, s)
		chainInt(b, 3, t, 32)
		b.Br(Periodic(1, 1, 1, 0), 0, kind)
	})
	routing := Kernel("routing", 0.2, 200, func(b *B) {
		v := b.Load(&MemSpec{Region: "topo", Kind: MRand, Bytes: 1 * mb, Hot: 0.8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 8), Width: 16}})
		b.Alu(Periodic(1, 6), v)
		chainInt(b, 4, v, 24)
	})
	return &Profile{Name: "omnetpp", Kernels: []KernelSpec{events, routing}}
}

// astar: pathfinding — pointer-ish walks, hard branches; modest gains.
func astar() *Profile {
	way := Kernel("wayfind", 1, 250, func(b *B) {
		p := b.Chase(&MemSpec{Region: "graph", Kind: MPtrRing, Bytes: 256 * kb,
			NodeBytes: 32, Shuffle: true})
		g := b.Field(p, 8, SmallSet(16, 20))
		h := b.Field(p, 16, Periodic(40, 80))
		f := b.Alu(Rand(24), g, h)
		b.Br(Bern(0.3), 1, f)
		b.Alu(Const(1), f)
		chainInt(b, 3, f, 24)
		b.Br(Bern(0.78), 0, f)
	})
	return &Profile{Name: "astar", Kernels: []KernelSpec{way}}
}

// wrf: weather model — stride-dominated values: VP's clearest win over RSEP
// (Figure 4).
func wrf() *Profile {
	phys := Kernel("phys", 1, 300, func(b *B) {
		i := b.Alu(Stride(0, 8))
		j := b.Alu(Stride(0x40, 8), i)
		x := b.Load(&MemSpec{Region: "t", Kind: MSeq, Bytes: 16 * mb, Stride: 8,
			Content: Stride(0x100, 0x10)}, i)
		y := b.Load(&MemSpec{Region: "qv", Kind: MSeq, Bytes: 16 * mb, Stride: 8,
			Content: Stride(0x7000, 0x8)}, j)
		k := b.Alu(Stride(0x9000_0000, 64), j)
		m := b.FpMul(Rand(52), x, y)
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 16 * mb, Stride: 8}, m)
		chainFP(b, 5, m, 52)
		_ = k
	})
	return &Profile{Name: "wrf", Kernels: []KernelSpec{phys}}
}

// sphinx3: speech recognition — gaussian scoring with small-set senone
// values; moderate equality, moderate VP.
func sphinx3() *Profile {
	gauss := Kernel("gauss", 1, 250, func(b *B) {
		m := b.Load(&MemSpec{Region: "mean", Kind: MSeq, Bytes: 8 * mb, Stride: 8,
			Content: Rand(52)})
		v := b.Load(&MemSpec{Region: "var", Kind: MSeq, Bytes: 8 * mb, Stride: 8,
			Content: &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, 12), Width: 32}})
		d := b.Fp(Rand(52), m, v)
		s := b.FpMul(Rand(52), d)
		sc := b.Alu(SmallSet(9, 12), s)
		b.Store(&MemSpec{Region: "score", Kind: MSeq, Bytes: 1 * mb, Stride: 8}, sc)
		chainFP(b, 4, s, 52)
		b.Br(Periodic(1, 1, 0), 0, sc)
	})
	return &Profile{Name: "sphinx3", Kernels: []KernelSpec{gauss}}
}

// xalancbmk: XSLT processing — move-rich object shuffling, long-distance
// equality through string-handling loops (needs a deep history, §VI-A2),
// plus strides: both RSEP and VP contribute and combine (Figure 4).
func xalancbmk() *Profile {
	dom := Kernel("dom", 0.6, 220, func(b *B) {
		n := b.Load(&MemSpec{Region: "nodes", Kind: MRand, Bytes: 2 * mb, Hot: 0.85, Content: Rand(44)})
		b.Move(n)
		var last int
		// String-compare cells; every third carries a per-slot constant
		// (stable equality at long pair distances, §VI-A2).
		for c := 0; c < 9; c++ {
			var x int
			if c%3 == 0 {
				x = b.Alu(Const(uint64(0x61+c)), n)
			} else {
				x = b.Alu(SmallSet(20, 24), n)
			}
			last = b.Alu(Rand(30), x, last)
		}
		ptr := b.Alu(Stride(0x5000_0000, 48))
		b.Store(&MemSpec{Region: "out", Kind: MSeq, Bytes: 2 * mb, Stride: 8}, ptr)
		b.Br(Periodic(1, 1, 1, 0), 0, last)
	})
	xpath := Kernel("xpath", 0.4, 180, func(b *B) {
		v := b.Load(&MemSpec{Region: "idx", Kind: MSeq, Bytes: 4 * mb, Stride: 8,
			Content: Stride(0x1000, 32)})
		b.ZeroIdiom()
		b.Move(v)
		c := b.Alu(Const(2), v)
		i := b.Alu(Stride(0, 8), c)
		chainInt(b, 4, i, 36)
		b.Br(Bern(0.1), 1, c)
		b.Alu(Const(0))
	})
	return &Profile{Name: "xalancbmk", Kernels: []KernelSpec{dom, xpath}}
}
