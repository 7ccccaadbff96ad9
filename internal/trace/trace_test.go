package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rsepsim/internal/uarch"
)

type sliceSource struct {
	insts []uarch.Inst
	i     int
}

func (s *sliceSource) Next() (uarch.Inst, bool) {
	if s.i >= len(s.insts) {
		return uarch.Inst{}, false
	}
	in := s.insts[s.i]
	s.i++
	return in, true
}

func randInst(rng *rand.Rand, pc uint64) uarch.Inst {
	classes := []uarch.Class{
		uarch.ClassIntAlu, uarch.ClassLoad, uarch.ClassStore,
		uarch.ClassBranch, uarch.ClassFPMul, uarch.ClassMove,
	}
	in := uarch.Inst{PC: pc, Class: classes[rng.Intn(len(classes))]}
	in.Dst = uarch.RegNone
	switch in.Class {
	case uarch.ClassBranch:
		in.BrKind = uarch.BrCond
		in.Taken = rng.Intn(2) == 0
		in.Target = pc + uint64(rng.Intn(256))*4
	case uarch.ClassStore:
		in.Addr = rng.Uint64() % (1 << 30) &^ 7
		in.MemSz = 8
	case uarch.ClassLoad:
		in.Dst = uarch.IntReg(rng.Intn(32))
		in.Addr = rng.Uint64() % (1 << 30) &^ 7
		in.MemSz = 8
		in.Result = rng.Uint64()
	default:
		in.Dst = uarch.IntReg(rng.Intn(32))
		in.Result = rng.Uint64()
		in.AddSrc(uarch.IntReg(rng.Intn(32)))
	}
	return in
}

func TestReplaySequencing(t *testing.T) {
	insts := make([]uarch.Inst, 20)
	for i := range insts {
		insts[i].PC = uint64(i) * 4
	}
	r := NewReplay(&sliceSource{insts: insts})
	for i := 0; i < 10; i++ {
		in, ok := r.Next()
		if !ok || in.Seq != uint64(i) {
			t.Fatalf("seq %d: got %d ok=%v", i, in.Seq, ok)
		}
	}
	// Squash back to 4: the same instructions replay with the same seqs.
	r.RewindTo(4)
	for i := 4; i < 12; i++ {
		in, _ := r.Next()
		if in.Seq != uint64(i) || in.PC != uint64(i)*4 {
			t.Fatalf("replayed seq %d: got seq=%d pc=%#x", i, in.Seq, in.PC)
		}
	}
	// Release committed prefix, then rewind into the retained window.
	r.Release(7)
	r.RewindTo(8)
	in, _ := r.Next()
	if in.Seq != 8 {
		t.Fatalf("after release, seq = %d, want 8", in.Seq)
	}
}

func TestReplayRewindBeforeReleasePanics(t *testing.T) {
	r := NewReplay(&sliceSource{insts: make([]uarch.Inst, 10)})
	for i := 0; i < 5; i++ {
		r.Next()
	}
	r.Release(2)
	defer func() {
		if recover() == nil {
			t.Fatal("rewind into released window did not panic")
		}
	}()
	r.RewindTo(1)
}

// TestReplayRefillReuse pins the pooled-refill property: once the ring has
// grown to the working window, further refills (and whole jobs replayed
// through Reset) recycle the retained storage and allocate nothing.
func TestReplayRefillReuse(t *testing.T) {
	insts := make([]uarch.Inst, 4096)
	for i := range insts {
		insts[i].PC = uint64(0x1000 + i*4)
	}
	r := NewReplay(&sliceSource{insts: insts})
	// Warm the ring past the refill batch so steady state is reached.
	for i := 0; i < 512; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatal("source exhausted early")
		}
		r.Release(uint64(i))
	}
	avg := testing.AllocsPerRun(8, func() {
		for i := 0; i < 256; i++ {
			in, ok := r.Next()
			if !ok {
				t.Fatal("source exhausted early")
			}
			r.Release(in.Seq)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state refill allocated %.1f times per 256 insts, want 0", avg)
	}

	// Reset rebinds to a fresh source but keeps the grown ring: the second
	// job's refills allocate nothing at all.
	second := &sliceSource{insts: insts}
	avg = testing.AllocsPerRun(8, func() {
		second.i = 0
		r.Reset(second)
		for i := 0; i < 1024; i++ {
			in, ok := r.Next()
			if !ok || in.Seq != uint64(i) || in.PC != insts[i].PC {
				t.Fatalf("after Reset: inst %d got seq=%d ok=%v", i, in.Seq, ok)
			}
			r.Release(in.Seq)
		}
	})
	if avg != 0 {
		t.Fatalf("post-Reset job allocated %.1f times, want 0", avg)
	}
}

// TestReplayPeekAdvance: Peek exposes the next instruction without consuming
// it; Advance consumes it. A non-advanced Peek is a free stall (the rewind-
// free form of fetch backpressure).
func TestReplayPeekAdvance(t *testing.T) {
	insts := make([]uarch.Inst, 16)
	for i := range insts {
		insts[i].PC = uint64(i) * 4
	}
	r := NewReplay(&sliceSource{insts: insts})
	for i := 0; i < 3; i++ { // repeated peeks do not consume
		in, ok := r.Peek()
		if !ok || in.Seq != 0 || in.PC != 0 {
			t.Fatalf("peek %d: got seq=%d ok=%v", i, in.Seq, ok)
		}
	}
	r.Advance()
	in, ok := r.Peek()
	if !ok || in.Seq != 1 {
		t.Fatalf("after advance: seq=%d ok=%v", in.Seq, ok)
	}
	r.Advance()
	// Peek after a rewind replays from the rewound position.
	r.RewindTo(0)
	got, ok := r.Next()
	if !ok || got.Seq != 0 {
		t.Fatalf("after rewind: seq=%d ok=%v", got.Seq, ok)
	}
}

// Property: any sequence of next/rewind operations yields instructions whose
// seq always matches their position in the original stream.
func TestQuickReplayConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		insts := make([]uarch.Inst, 200)
		for i := range insts {
			insts[i] = randInst(rng, uint64(0x1000+i*4))
		}
		r := NewReplay(&sliceSource{insts: insts})
		delivered := uint64(0)
		for step := 0; step < 300; step++ {
			if rng.Intn(4) == 0 && delivered > 0 {
				back := uint64(rng.Intn(int(delivered + 1)))
				r.RewindTo(back)
				delivered = back
				continue
			}
			in, ok := r.Next()
			if !ok {
				break
			}
			if in.Seq != delivered || in.PC != insts[delivered].PC {
				return false
			}
			delivered++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReplaySquashAfterManyReleases drives the ring through many
// release/refill laps — far past its initial capacity, so the head index has
// wrapped repeatedly — then rewinds into the middle of the retained window
// and checks the replayed stream byte-for-byte.
func TestReplaySquashAfterManyReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const total = 10_000
	insts := make([]uarch.Inst, total)
	for i := range insts {
		insts[i] = randInst(rng, 0x400000+uint64(i)*4)
	}
	r := NewReplay(&sliceSource{insts: insts})

	const window = 96 // inflight window, far below the lap count
	var delivered uint64
	for delivered < total-window {
		in, ok := r.Next()
		if !ok {
			t.Fatal("source exhausted early")
		}
		if in.Seq != delivered {
			t.Fatalf("seq %d, want %d", in.Seq, delivered)
		}
		delivered++
		// Retire (release) everything that falls out of the window.
		if delivered > window {
			r.Release(delivered - window - 1)
		}
	}
	if got := r.Retained(); got != window {
		t.Fatalf("retained %d, want %d", got, window)
	}

	// Squash: rewind into the middle of the retained window and replay.
	squashTo := delivered - window/2
	r.RewindTo(squashTo)
	for seq := squashTo; seq < delivered; seq++ {
		in, ok := r.Next()
		if !ok {
			t.Fatal("replay exhausted early")
		}
		want := insts[seq]
		want.Seq = seq // Replay assigns sequence numbers
		if in != want {
			t.Fatalf("replayed inst %d differs: got %+v want %+v", seq, in, want)
		}
	}
	// The replayed stream seamlessly continues into fresh instructions.
	in, ok := r.Next()
	if !ok || in.Seq != delivered {
		t.Fatalf("stream did not resume at %d (got %v, %v)", delivered, in.Seq, ok)
	}
}
