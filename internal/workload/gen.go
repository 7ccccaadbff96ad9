package workload

import (
	"math/rand"
	"sort"

	"rsepsim/internal/simmem"
	"rsepsim/internal/uarch"
)

// Profile is one benchmark model: a named weighted mixture of kernels. The
// generators that run a profile only read it, so one profile can serve any
// number of them at once.
type Profile struct {
	Name    string
	Kernels []KernelSpec
}

// region is the runtime state of a named memory region.
type region struct {
	spec  MemSpec
	base  uint64
	words uint64 // region size in 8-byte words
	iter  uint64 // walker position, advanced once per kernel iteration
	salt  uint64
	entry uint64 // MPtrRing: first node address

	// MPtrRing: ring[node] is the address of node's successor. The ring is
	// never materialised in functional memory — the only reads are the
	// chase loads at node-base addresses, which valueAt answers from this
	// table; everything else in the region reads as untouched memory,
	// exactly as when the pointers were stored one word per node.
	ring      []uint64
	nodeBytes uint64

	content valueSeq // compiled spec.Content when it is a KSmallSet
}

func (r *region) writable() bool { return r.spec.Content == nil && r.spec.Kind != MPtrRing }

// nextAddr returns the slot's address for the current iteration, lag
// iterations behind the walker for store/reload pairing.
func (r *region) nextAddr(g *Gen, lag uint64) uint64 {
	switch r.spec.Kind {
	case MRand:
		words := r.words
		if r.spec.Hot > 0 && g.rng.Float64() < r.spec.Hot {
			words = r.words/8 + 1
		}
		return r.base + (g.rng.Uint64()%words)*8
	default:
		it := r.iter
		if lag > it {
			it = 0
		} else {
			it -= lag
		}
		stride := r.spec.Stride
		if stride == 0 {
			stride = 8
		}
		off := (it * stride) % (r.words * 8)
		return r.base + off&^7
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valueAt returns the (deterministic) content of addr for read-only regions,
// or the functional memory contents for writable ones.
func (r *region) valueAt(g *Gen, addr uint64) uint64 {
	c := r.spec.Content
	if c == nil {
		if r.ring != nil {
			off := addr - r.base
			if off%r.nodeBytes == 0 {
				if node := off / r.nodeBytes; node < uint64(len(r.ring)) {
					return r.ring[node]
				}
			}
		}
		return g.mem.Read64(addr)
	}
	h := mix64(addr + r.salt)
	switch c.Kind {
	case KConst:
		return c.Start
	case KStride:
		return c.Start + (addr-r.base)/8*c.Step
	case KPeriodic:
		return c.Vals[(addr>>3)%uint64(len(c.Vals))]
	case KSmallSet:
		return r.content.spec.Vals[h%uint64(len(r.content.spec.Vals))]
	case KZeroBurst:
		if float64(h&0xffff)/65536 < c.ZeroP {
			return 0
		}
		return (h >> 16 & (1<<c.Width - 1)) | 1
	default: // KRandom
		if c.Width == 0 || c.Width >= 64 {
			return h
		}
		return h & (1<<c.Width - 1)
	}
}

// Gen functionally executes a benchmark profile and produces its dynamic
// instruction stream. It implements trace.Source.
type Gen struct {
	profile *Profile
	rng     *rand.Rand
	mem     simmem.Memory

	kernels []kernel
	cum     []float64
	regions map[regionKey]*region
	brk     uint64 // region allocation bump pointer

	cur       int
	phaseLeft int

	dispatchPC  uint64
	scratchAddr uint64

	q    []uarch.Inst
	qpos int

	ringScratch []uint64   // shuffle-order scratch shared by initRing calls
	rings       [][]uint64 // pointer-ring storage, kept across Reset by rank
	ringsUsed   int        // rings the current job has laid out
	regionPool  []*region  // region records, kept across Reset by rank
	regionsUsed int        // region records the current job has claimed
}

// regionKey names a region: regions are private to the kernel that
// declares them.
type regionKey struct{ owner, name string }

// Memory layout: code at 0x10000, dispatcher at 0xF000, data regions from
// 256MB up (regions are padded apart to keep cache sets honest).
const (
	codeBase  = 0x10000
	dataBase  = 0x1000_0000
	kernelPCs = 0x1000 // PC space per kernel
)

// New compiles profile with the given random seed. Different seeds produce
// different phase schedules, random values and ring permutations — the
// reproduction's analogue of the paper's per-benchmark checkpoints.
func New(profile *Profile, seed int64) *Gen {
	g := new(Gen)
	g.Reset(profile, seed)
	return g
}

// Reset recompiles g for profile and seed: the stream that follows is
// exactly the one New(profile, seed) would produce, and Footprint starts
// from zero. g keeps its storage — functional-memory pages, pointer-ring
// backing, ring-shuffle scratch, the emission queue, and the compiled
// kernels, slots, value streams and regions, which are compiled in place —
// so a generator reused job after job allocates only what its new job
// needs beyond the largest of its earlier ones. profile is only read.
func (g *Gen) Reset(profile *Profile, seed int64) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(seed))
	} else {
		g.rng.Seed(seed) // equal to a fresh source: Seed also drops buffered bits
	}
	g.profile = profile
	g.mem.Reset()
	if g.regions == nil {
		g.regions = make(map[regionKey]*region)
	}
	clear(g.regions)
	g.brk = dataBase
	g.cur, g.phaseLeft = -1, 0
	g.dispatchPC = 0xF000
	g.scratchAddr = dataBase - 0x1000
	g.q, g.qpos = g.q[:0], 0
	g.ringsUsed, g.regionsUsed = 0, 0

	g.kernels = resize(g.kernels, len(profile.Kernels))
	pc := uint64(codeBase)
	total := 0.0
	for i, ks := range profile.Kernels {
		g.kernels[i].compile(ks, pc, g)
		pc += kernelPCs
		total += ks.Weight
	}
	g.cum = g.cum[:0]
	cum := 0.0
	for _, ks := range profile.Kernels {
		cum += ks.Weight / total
		g.cum = append(g.cum, cum)
	}
}

// regionFor resolves (allocating on first use) the region a MemSpec names.
func (g *Gen) regionFor(spec *MemSpec, kernelName string) *region {
	key := regionKey{kernelName, spec.Region}
	if r, ok := g.regions[key]; ok {
		return r
	}
	bytes := spec.Bytes
	if bytes < 64 {
		bytes = 64
	}
	if g.regionsUsed == len(g.regionPool) {
		g.regionPool = append(g.regionPool, new(region))
	}
	r := g.regionPool[g.regionsUsed]
	g.regionsUsed++
	*r = region{
		spec:    *spec,
		base:    g.brk,
		words:   bytes / 8,
		salt:    g.rng.Uint64(),
		content: valueSeq{drawn: r.content.drawn},
	}
	g.brk += bytes + 64*1024 // pad regions apart
	if spec.Content != nil && spec.Content.Kind == KSmallSet {
		r.content.compile(spec.Content, g.rng)
	}
	if spec.Kind == MPtrRing {
		g.initRing(r)
	}
	g.regions[key] = r
	return r
}

// initRing lays out a pointer ring in functional memory.
func (g *Gen) initRing(r *region) {
	nodeBytes := r.spec.NodeBytes
	if nodeBytes < 8 {
		nodeBytes = 8
	}
	n := r.spec.Bytes / nodeBytes
	if n < 2 {
		n = 2
	}
	if uint64(cap(g.ringScratch)) < n {
		g.ringScratch = make([]uint64, n)
	}
	order := g.ringScratch[:n]
	for i := range order {
		order[i] = uint64(i)
	}
	if r.spec.Shuffle {
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	r.nodeBytes = nodeBytes
	r.ring = g.ringStorage(n)
	for i := range order {
		r.ring[order[i]] = r.base + order[(uint64(i)+1)%n]*nodeBytes
	}
	r.entry = r.base + order[0]*nodeBytes
}

// ringStorage returns n words for the next pointer ring the current job
// lays out: the slice an earlier job's ring of the same rank used, when it
// is large enough, so a reset generator lays out the rings of any profile
// it has run before without allocating.
func (g *Gen) ringStorage(n uint64) []uint64 {
	i := g.ringsUsed
	g.ringsUsed++
	if i == len(g.rings) {
		g.rings = append(g.rings, nil)
	}
	if uint64(cap(g.rings[i])) < n {
		g.rings[i] = make([]uint64, n)
	}
	return g.rings[i][:n]
}

// Footprint reports the touched functional-memory footprint in bytes.
func (g *Gen) Footprint() uint64 { return g.mem.Footprint() }

// Next implements trace.Source.
func (g *Gen) Next() (uarch.Inst, bool) {
	for g.qpos >= len(g.q) {
		g.q = g.q[:0]
		g.qpos = 0
		g.step()
	}
	in := g.q[g.qpos]
	g.qpos++
	return in, true
}

// step emits the next chunk: a dispatcher jump when a phase ends, then one
// kernel iteration.
func (g *Gen) step() {
	if g.phaseLeft <= 0 {
		next := g.pickKernel()
		if g.cur >= 0 {
			// Indirect dispatch to the next kernel (BTB-predicted;
			// mispredicts on phase changes).
			g.q = append(g.q, uarch.Inst{
				PC:     g.dispatchPC,
				Class:  uarch.ClassBranch,
				BrKind: uarch.BrIndirect,
				Dst:    uarch.RegNone,
				Taken:  true,
				Target: g.kernels[next].pcBase,
			})
		}
		g.cur = next
		k := &g.kernels[next]
		g.phaseLeft = 1 + g.rng.Intn(2*k.spec.AvgIters)
	}
	g.phaseLeft--
	g.kernels[g.cur].emit(g, g.phaseLeft > 0)
}

func (g *Gen) pickKernel() int {
	x := g.rng.Float64()
	i := sort.SearchFloat64s(g.cum, x)
	if i >= len(g.kernels) {
		i = len(g.kernels) - 1
	}
	return i
}

// ---- emission helpers used by kernel.emit ----

func (g *Gen) emitOp(sl *slot, v uint64) {
	in := uarch.Inst{
		PC:        sl.pc,
		Class:     sl.spec.Class,
		Dst:       sl.dst,
		Result:    v,
		ZeroIdiom: sl.spec.ZeroIdiom,
	}
	for _, s := range sl.srcs {
		in.AddSrc(s)
	}
	g.q = append(g.q, in)
}

func (g *Gen) emitLoad(sl *slot, addr, v uint64) {
	in := uarch.Inst{
		PC:     sl.pc,
		Class:  uarch.ClassLoad,
		Dst:    sl.dst,
		Result: v,
		Addr:   addr,
		MemSz:  8,
	}
	for _, s := range sl.srcs {
		in.AddSrc(s)
	}
	g.q = append(g.q, in)
}

func (g *Gen) emitStore(sl *slot, addr, v uint64) {
	in := uarch.Inst{
		PC:     sl.pc,
		Class:  uarch.ClassStore,
		Dst:    uarch.RegNone,
		Result: v,
		Addr:   addr,
		MemSz:  8,
	}
	for _, s := range sl.srcs {
		in.AddSrc(s)
	}
	g.q = append(g.q, in)
}

func (g *Gen) emitBranch(sl *slot, taken bool, target uint64) {
	in := uarch.Inst{
		PC:     sl.pc,
		Class:  uarch.ClassBranch,
		BrKind: uarch.BrCond,
		Dst:    uarch.RegNone,
		Taken:  taken,
		Target: target,
	}
	for _, s := range sl.srcs {
		in.AddSrc(s)
	}
	g.q = append(g.q, in)
}

func (g *Gen) emitLoopBranch(k *kernel, taken bool) {
	g.q = append(g.q, uarch.Inst{
		PC:     k.loopPC,
		Class:  uarch.ClassBranch,
		BrKind: uarch.BrCond,
		Dst:    uarch.RegNone,
		Taken:  taken,
		Target: k.pcBase,
	})
}
