package workload

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"rsepsim/internal/uarch"
)

func TestAllBenchmarksRegistered(t *testing.T) {
	names := Names()
	if len(names) != 29 {
		t.Fatalf("registered %d benchmarks, want the 29 of SPEC CPU2006", len(names))
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName must reject unknown benchmarks")
	}
}

// TestByNameSharesOneProfile: ByName hands every caller the same profile,
// and generators running on it at once leave it equal to a freshly built
// one, so sharing it across jobs and goroutines is safe.
func TestByNameSharesOneProfile(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 2; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if q := MustByName(name); q != p {
					t.Errorf("%s: ByName returned two different profiles", name)
				}
				g := New(p, seed)
				for range 10_000 {
					g.Next()
				}
				g.Reset(p, seed+2)
				for range 10_000 {
					g.Next()
				}
			}()
		}
		wg.Wait()
		if fresh := registry[name](); !reflect.DeepEqual(p, fresh) {
			t.Errorf("%s: a profile generators have run differs from a freshly built one", name)
		}
	}
}

// Every benchmark must emit a well-formed stream: valid registers, aligned
// addresses, stable static attributes per PC, and branch records with
// targets.
func TestStreamWellFormed(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := New(MustByName(name), 1)
			type static struct {
				class uarch.Class
				dst   uarch.Reg
			}
			seen := map[uint64]static{}
			for i := 0; i < 30_000; i++ {
				in, ok := g.Next()
				if !ok {
					t.Fatal("stream ended early")
				}
				if in.HasDest() && !in.Dst.Valid() {
					t.Fatalf("invalid dest %v at pc %#x", in.Dst, in.PC)
				}
				for _, s := range in.Sources() {
					if !s.Valid() {
						t.Fatalf("invalid source at pc %#x", in.PC)
					}
				}
				if in.IsMem() {
					if in.Addr%8 != 0 {
						t.Fatalf("unaligned address %#x", in.Addr)
					}
					if in.MemSz != 8 {
						t.Fatalf("unexpected access size %d", in.MemSz)
					}
				}
				if in.IsBranch() && in.Taken && in.Target == 0 {
					t.Fatalf("taken branch without target at %#x", in.PC)
				}
				if in.ZeroIdiom && in.Result != 0 {
					t.Fatalf("zero idiom with nonzero result at %#x", in.PC)
				}
				if st, ok := seen[in.PC]; ok {
					if st.class != in.Class || st.dst != in.Dst {
						t.Fatalf("pc %#x changed static attributes", in.PC)
					}
				} else {
					seen[in.PC] = static{in.Class, in.Dst}
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := New(MustByName("mcf"), 7)
	b := New(MustByName("mcf"), 7)
	for i := 0; i < 5000; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x != y {
			t.Fatalf("same seed diverged at instruction %d", i)
		}
	}
	c := New(MustByName("mcf"), 8)
	same := 0
	for i := 0; i < 5000; i++ {
		x, _ := a.Next()
		y, _ := c.Next()
		if x == y {
			same++
		}
	}
	if same == 5000 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestResetEqualsNew is the generator-reuse contract, as a randomized
// equality property: for every profile, a generator that has already run
// another profile and seed for a random length, then been Reset, emits
// exactly New's stream and reports the same Footprint. One generator serves
// every case, so its recycled pages, ring storage and queue carry over from
// case to case as they do in a worker's pool.
func TestResetEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := Names()
	g := New(MustByName(names[0]), 0)
	for _, name := range names {
		prior := names[rng.Intn(len(names))]
		g.Reset(MustByName(prior), rng.Int63())
		for n := rng.Intn(40_000); n > 0; n-- {
			g.Next()
		}
		seed := rng.Int63()
		g.Reset(MustByName(name), seed)
		want := New(MustByName(name), seed)
		if g.Footprint() != want.Footprint() {
			t.Fatalf("%s after %s: reset Footprint %d, New's %d", name, prior, g.Footprint(), want.Footprint())
		}
		for i := 0; i < 20_000; i++ {
			x, _ := g.Next()
			y, _ := want.Next()
			if x != y {
				t.Fatalf("%s after %s: reset generator diverged from New at instruction %d\n got: %+v\nwant: %+v", name, prior, i, x, y)
			}
		}
		if g.Footprint() != want.Footprint() {
			t.Errorf("%s after %s: Footprint %d after 20k instructions, New's %d", name, prior, g.Footprint(), want.Footprint())
		}
	}
}

// compileValue compiles spec into a fresh stream.
func compileValue(spec *ValueSpec, rng *rand.Rand) *valueSeq {
	s := new(valueSeq)
	s.compile(spec, rng)
	return s
}

func TestValueSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lv := make([]uint64, 4)

	c := compileValue(Const(9), rng)
	for i := 0; i < 5; i++ {
		if c.next(rng, lv) != 9 {
			t.Fatal("Const drifted")
		}
	}

	s := compileValue(Stride(10, 3), rng)
	for i := 0; i < 5; i++ {
		if got := s.next(rng, lv); got != uint64(10+3*i) {
			t.Fatalf("Stride[%d] = %d", i, got)
		}
	}

	p := compileValue(Periodic(1, 2, 3), rng)
	want := []uint64{1, 2, 3, 1, 2, 3}
	for i, w := range want {
		if got := p.next(rng, lv); got != w {
			t.Fatalf("Periodic[%d] = %d, want %d", i, got, w)
		}
	}

	lv[2] = 0xabc
	d := compileValue(Dup(2), rng)
	if d.next(rng, lv) != 0xabc {
		t.Fatal("Dup did not mirror")
	}

	ss := compileValue(SmallSet(4, 16), rng)
	vals := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		vals[ss.next(rng, lv)] = true
	}
	if len(vals) > 4 {
		t.Fatalf("SmallSet produced %d distinct values, want <=4", len(vals))
	}
}

func TestZeroBurstFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := compileValue(ZeroBurst(0.2, 0.7, 32), rng)
	zeros := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if z.next(rng, nil) == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / n
	if frac < 0.2 || frac > 0.75 {
		t.Fatalf("zero fraction = %.2f, want bursty-elevated above 0.2", frac)
	}
}

func TestBernBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := compileValue(Bern(0.1), rng)
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if b.next(rng, nil) != 0 {
			ones++
		}
	}
	frac := float64(ones) / n
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("Bern(0.1) fraction = %.3f", frac)
	}
}

func TestPtrRingIsCycle(t *testing.T) {
	g := New(&Profile{Name: "t", Kernels: []KernelSpec{
		Kernel("k", 1, 10, func(b *B) {
			b.Chase(&MemSpec{Region: "r", Kind: MPtrRing, Bytes: 4096, NodeBytes: 64, Shuffle: true})
		}),
	}}, 5)
	r := g.regions[regionKey{"k", "r"}]
	n := int(r.spec.Bytes / r.spec.NodeBytes)
	p := r.entry
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		if seen[p] {
			t.Fatalf("ring revisits node %#x after %d hops, want %d", p, i, n)
		}
		seen[p] = true
		p = r.valueAt(g, p)
	}
	if p != r.entry {
		t.Fatal("ring does not close")
	}
}

// Property: the store/reload Lag mechanism reproduces the stored value.
func TestQuickStoreReloadLag(t *testing.T) {
	f := func(seed int64) bool {
		prof := &Profile{Name: "t", Kernels: []KernelSpec{
			Kernel("k", 1, 1000, func(b *B) {
				v := b.Alu(Stride(1000, 7))
				b.Store(&MemSpec{Region: "w", Kind: MSeq, Bytes: 4096, Stride: 8}, v)
				b.Load(&MemSpec{Region: "w", Kind: MSeq, Bytes: 4096, Stride: 8, Lag: 2})
			}),
		}}
		g := New(prof, seed)
		var stored []uint64
		checked := 0
		for i := 0; i < 2000; i++ {
			in, _ := g.Next()
			switch {
			case in.IsStore():
				stored = append(stored, in.Result)
			case in.IsLoad():
				// The load lags the store walker by 2 iterations.
				k := len(stored) - 1 - 2
				if k >= 0 {
					if in.Result != stored[k] {
						return false
					}
					checked++
				}
			}
		}
		return checked > 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Character(t *testing.T) {
	// zeusmp and cactusADM are the paper's zero-rich outliers; sanity
	// check that their streams carry far more zero results than sjeng's.
	zeroFrac := func(name string) float64 {
		g := New(MustByName(name), 3)
		zeros, prod := 0, 0
		for i := 0; i < 60_000; i++ {
			in, _ := g.Next()
			if in.HasDest() && !in.ZeroIdiom {
				prod++
				if in.Result == 0 {
					zeros++
				}
			}
		}
		return float64(zeros) / float64(prod)
	}
	z, c, s := zeroFrac("zeusmp"), zeroFrac("cactusADM"), zeroFrac("sjeng")
	if z < 0.10 || c < 0.10 {
		t.Fatalf("zeusmp %.2f / cactusADM %.2f zero fractions too low", z, c)
	}
	if s > z/2 {
		t.Fatalf("sjeng zero fraction %.2f not clearly below zeusmp %.2f", s, z)
	}
}
