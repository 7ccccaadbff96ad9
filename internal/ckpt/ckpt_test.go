package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// headerLen is the byte length of the stream header: magic, version, the
// byte-order probe and the word-size probe.
const headerLen = len(magic) + 4 + 8 + 8

// encodeSlice writes one Slice section into a complete stream.
func encodeSlice[T any](t *testing.T, s []T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewEncoder(&buf)
	Slice(w, &s)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTripSlice checks every decoding of a Slice section against s: Slice
// into a fresh and into a dirty reused backing array, and Fixed into a dirty
// destination whose backing array extends past it. It returns the section's
// encoded length (length prefix included).
func roundTripSlice[T comparable](t *testing.T, s []T, dirty T) int {
	t.Helper()
	blob := encodeSlice(t, s)
	read := func(f func(r *Stream)) {
		t.Helper()
		r, err := NewDecoder(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		f(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	read(func(r *Stream) {
		var got []T
		if Slice(r, &got); !slices.Equal(got, s) {
			t.Errorf("Slice into nil = %v, want %v", got, s)
		}
	})

	reused := make([]T, len(s)+3)
	for i := range reused {
		reused[i] = dirty
	}
	read(func(r *Stream) {
		if Slice(r, &reused); !slices.Equal(reused, s) {
			t.Errorf("Slice into a dirty buffer = %v, want %v", reused, s)
		}
	})

	backing := make([]T, len(s)+2)
	for i := range backing {
		backing[i] = dirty
	}
	read(func(r *Stream) {
		Fixed(r, backing[:len(s)])
	})
	if !slices.Equal(backing[:len(s)], s) {
		t.Errorf("Fixed = %v, want %v", backing[:len(s)], s)
	}
	for i, v := range backing[len(s):] {
		if v != dirty {
			t.Errorf("Fixed wrote past its destination at %d", len(s)+i)
		}
	}
	return len(blob) - headerLen - 8
}

func TestSliceRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		// run round-trips the case and returns its encoded section length.
		run  func(t *testing.T) int
		want int // length prefix + run headers + literal words + tail
	}{
		{"empty", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{}, 9)
		}, 8},
		{"all-zero", func(t *testing.T) int {
			return roundTripSlice(t, make([]uint64, 64), 9)
		}, 8 + 8},
		{"all-nonzero", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{1, 2, 3, 4}, 9)
		}, 8 + 8 + 4*8},
		{"isolated-zero-word", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{1, 0, 2, 0, 3}, 9)
		}, 8 + 8 + 5*8},
		{"zero-pair-splits", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{1, 0, 0, 2}, 9)
		}, 8 + (8 + 8) + (8 + 8)},
		{"trailing-nonzero", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{0, 0, 0, 5}, 9)
		}, 8 + 8 + 8},
		{"trailing-zero", func(t *testing.T) int {
			return roundTripSlice(t, []uint64{5, 0}, 9)
		}, 8 + (8 + 8) + 8},
		{"uint16-word-plus-tail", func(t *testing.T) int {
			return roundTripSlice(t, []uint16{1, 2, 3, 4, 5, 6, 7}, 9)
		}, 8 + 8 + 8 + 6},
		{"uint16-tail-only", func(t *testing.T) int {
			return roundTripSlice(t, []uint16{0, 7, 0}, 9)
		}, 8 + 6},
		{"uint16-zero-word-nonzero-tail", func(t *testing.T) int {
			return roundTripSlice(t, []uint16{0, 0, 0, 0, 0, 1}, 9)
		}, 8 + 8 + 4},
		{"byte3", func(t *testing.T) int {
			return roundTripSlice(t, [][3]byte{{1, 2, 3}, {}, {}, {}, {}, {0, 0, 9}}, [3]byte{7, 7, 7})
		}, 8 + (8 + 8) + 8 + 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("encoded section is %d bytes, want %d", got, tc.want)
			}
		})
	}
}

type podStruct struct {
	A uint64
	B [5]uint16
	C bool
	D [40]int32
	E float64
}

func TestStructAndPrimitivesRoundTrip(t *testing.T) {
	want := podStruct{A: 1, B: [5]uint16{0, 2}, C: true, E: 2.5}
	want.D[39] = -4
	type prims struct {
		u64      uint64
		u32      uint32
		b        bool
		i64      int64
		i        int
		empty, s string
	}
	in := prims{1 << 60, 7, true, -3, -9, "", "hello"}
	walk := func(s *Stream, p *prims, v *podStruct) {
		s.Tag("sec")
		s.U64(&p.u64)
		s.U32(&p.u32)
		s.Bool(&p.b)
		s.I64(&p.i64)
		s.Int(&p.i)
		s.Str(&p.empty)
		s.Str(&p.s)
		Struct(s, v)
	}
	var buf bytes.Buffer
	w := NewEncoder(&buf)
	walk(w, &in, &want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if in != (prims{1 << 60, 7, true, -3, -9, "", "hello"}) {
		t.Errorf("encoding changed its values: %+v", in)
	}

	r, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := prims{empty: "stale", s: "stale"}
	got := podStruct{A: 99, C: false, E: 1}
	got.D[0] = 5
	walk(r, &out, &got)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("primitives = %+v, want %+v", out, in)
	}
	if got != want {
		t.Errorf("Struct = %+v, want %+v", got, want)
	}
}

func TestReadSliceFixedLengthMismatch(t *testing.T) {
	blob := encodeSlice(t, []uint64{1, 2, 3})
	r, err := NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	dst := []uint64{7, 7}
	Fixed(r, dst)
	if !errors.Is(r.Err(), ErrLength) {
		t.Fatalf("Fixed of a 3-element section into 2 elements: error %v, want ErrLength", r.Err())
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Errorf("refused Fixed modified its destination: %v", dst)
	}
}

// craftSection returns a stream holding one section with a length prefix of
// n and the given raw run bytes, sealed with a valid CRC so only the run
// framing is wrong.
func craftSection(t *testing.T, n uint64, runs ...uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewEncoder(&buf)
	w.U64(&n)
	for _, v := range runs {
		w.U32(&v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMalformedRuns(t *testing.T) {
	cases := []struct {
		name string
		runs []uint32 // (zeros, literals) pairs; literal words omitted
	}{
		{"zero-length", []uint32{0, 0, 4, 0}},
		{"zeros-overrun", []uint32{5, 0}},
		{"literals-overrun", []uint32{3, 2}},
		{"second-run-overruns", []uint32{2, 0, 1, 2}},
		{"max-counts", []uint32{^uint32(0), ^uint32(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := craftSection(t, 4, tc.runs...)

			r, err := NewDecoder(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			backing := []uint64{9, 9, 9, 9, 9, 9}
			Fixed(r, backing[:4])
			if !errors.Is(r.Err(), ErrRun) {
				t.Errorf("Fixed error = %v, want ErrRun", r.Err())
			}
			if backing[4] != 9 || backing[5] != 9 {
				t.Errorf("malformed run wrote past the destination: %v", backing)
			}

			r, err = NewDecoder(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			Slice(r, &got)
			if !errors.Is(r.Close(), ErrRun) {
				t.Errorf("Slice error = %v, want ErrRun", r.Err())
			}
		})
	}
}

func TestTruncatedStream(t *testing.T) {
	blob := encodeSlice(t, []uint64{1, 0, 0, 0, 2, 3, 0, 4})
	for n := 0; n < len(blob); n++ {
		r, err := NewDecoder(bytes.NewReader(blob[:n]))
		if err != nil {
			continue
		}
		dst := make([]uint64, 8)
		Fixed(r, dst)
		if err := r.Close(); err == nil {
			t.Errorf("stream truncated to %d of %d bytes read without error", n, len(blob))
		}
	}
}

func TestFlippedPayloadBit(t *testing.T) {
	blob := encodeSlice(t, []uint64{1, 2, 3})
	// Header, length prefix, one run header, then the first literal word.
	blob[headerLen+8+8] ^= 0x10
	r, err := NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	Slice(r, &got)
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Errorf("Close = %v, want ErrChecksum", err)
	}
}

func TestVersion3Refused(t *testing.T) {
	blob := encodeSlice(t, []uint64{1})
	binary.LittleEndian.PutUint32(blob[len(magic):], 3)
	if _, err := NewDecoder(bytes.NewReader(blob)); !errors.Is(err, ErrVersion) {
		t.Errorf("NewDecoder on a v3 header = %v, want ErrVersion", err)
	}
}

// padded has padding after a (4 bytes) and after c (7 bytes); padded12 is
// 12 bytes with padding after b, so an odd-length slice of it ends in a
// partial word.
type (
	padded struct {
		a uint32
		b uint64
		c uint8
	}
	padded12 struct {
		a uint32
		b uint16
		c uint32
	}
)

// scribble overwrites every byte of s, padding included, then restores the
// fields of want: the padding keeps the garbage.
func scribble[T any](s []T, want []T) {
	raw, src := rawBytes(s), rawBytes(want)
	for i := range raw {
		raw[i] = byte(0xa5 ^ i)
	}
	t := reflect.TypeOf((*T)(nil)).Elem()
	for i := range s {
		for j := 0; j < t.NumField(); j++ {
			lo := i*int(t.Size()) + int(t.Field(j).Offset)
			hi := lo + int(t.Field(j).Type.Size())
			copy(raw[lo:hi], src[lo:hi])
		}
	}
}

// TestPaddingEncodesAsZero pins that a section's bytes depend only on its
// field values: padding bytes, which hold whatever the allocator or a copied
// stack temporary left there, are encoded as zero.
func TestPaddingEncodesAsZero(t *testing.T) {
	vals := []padded{{1, 2, 3}, {}, {0, 0, 9}, {4, 0, 0}}
	dirty := make([]padded, len(vals))
	scribble(dirty, vals)
	if !bytes.Equal(encodeSlice(t, dirty), encodeSlice(t, vals)) {
		t.Error("padding garbage reached a Slice section")
	}
	roundTripSlice(t, dirty, padded{7, 7, 7})

	vals12 := []padded12{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	dirty12 := make([]padded12, len(vals12))
	scribble(dirty12, vals12)
	if !bytes.Equal(encodeSlice(t, dirty12), encodeSlice(t, vals12)) {
		t.Error("padding garbage reached the partial last word of a Slice section")
	}
	roundTripSlice(t, dirty12, padded12{7, 7, 7})

	var clean, garbage [3]padded
	copy(clean[:], vals)
	scribble(garbage[:], clean[:])
	encode := func(v *[3]padded) []byte {
		var buf bytes.Buffer
		w := NewEncoder(&buf)
		Struct(w, v)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(&garbage), encode(&clean)) {
		t.Error("padding garbage reached a Struct section")
	}
}

// btbLike has the shape of the branch predictor's BTB, the largest struct a
// core checkpoint writes.
type btbLike [2048][2]struct{ tag, target uint64 }

func TestPrimitivesDoNotAllocate(t *testing.T) {
	table := make([]uint64, 1024)
	table[7] = 1
	btb := new(btbLike)
	btb[3][1].target = 5

	w := NewEncoder(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		u64, u32, b, tag := uint64(1), uint32(2), true, "tag"
		w.U64(&u64)
		w.U32(&u32)
		w.Bool(&b)
		w.Str(&tag)
		Slice(w, &table)
		Struct(w, btb)
	}); n != 0 {
		t.Errorf("encoder allocates %.1f times per round", n)
	}

	const rounds = 101 // AllocsPerRun's warm-up call plus its runs
	var buf bytes.Buffer
	w = NewEncoder(&buf)
	for i := 0; i < rounds; i++ {
		u64, u32, b := uint64(1), uint32(2), true
		w.Tag("section")
		w.U64(&u64)
		w.U32(&u32)
		w.Bool(&b)
		Slice(w, &table)
		Struct(w, btb)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A decoder reads straight from an in-memory reader: opening one
	// allocates the Stream and no staging buffer.
	in := bytes.NewReader(buf.Bytes())
	if n := testing.AllocsPerRun(100, func() {
		in.Reset(buf.Bytes())
		if _, err := NewDecoder(in); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("NewDecoder allocates %.1f times, want only its Stream", n)
	}

	r, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(rounds-1, func() {
		var (
			u64 uint64
			u32 uint32
			b   bool
		)
		r.Tag("section")
		r.U64(&u64)
		r.U32(&u32)
		r.Bool(&b)
		Fixed(r, table)
		Struct(r, btb)
	}); n != 0 {
		t.Errorf("decoder allocates %.1f times per round", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if table[7] != 1 || btb[3][1].target != 5 {
		t.Error("round trip lost state")
	}
}

// fuzzStruct is the struct section of the fuzzed schema.
type fuzzStruct struct {
	A uint32
	B [3]uint16
	C [9]uint64
}

// fuzzSchema is the stream FuzzReader decodes, walked in both directions.
type fuzzSchema struct {
	tag      string
	nVals    uint64 // len(vals)
	nTriples uint32 // len(triples)
	hasTag   bool   // tag != ""
	fixed    []uint16
	vals     []uint64
	triples  [][3]byte
	st       fuzzStruct
}

func (f *fuzzSchema) walk(s *Stream) {
	s.Tag("fuzz")
	s.Str(&f.tag)
	s.U64(&f.nVals)
	s.U32(&f.nTriples)
	s.Bool(&f.hasTag)
	Fixed(s, f.fixed)
	Slice(s, &f.vals)
	Slice(s, &f.triples)
	Struct(s, &f.st)
}

// encodeFuzzSchema writes the stream FuzzReader decodes. The seed corpus in
// testdata/fuzz/FuzzReader was produced from it.
func encodeFuzzSchema(tag string, fixed []uint16, vals []uint64, triples [][3]byte, st *fuzzStruct) []byte {
	f := fuzzSchema{tag, uint64(len(vals)), uint32(len(triples)), tag != "", fixed, vals, triples, *st}
	var buf bytes.Buffer
	w := NewEncoder(&buf)
	f.walk(w)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzFixedLen is the geometry of the schema's Fixed section.
const fuzzFixedLen = 37

// FuzzReader decodes arbitrary bytes as the schema encodeFuzzSchema writes.
// Property: the decode ends in success or an error, never a panic, and
// allocates nothing beyond the decoder itself and the values whose length
// prefixes passed the bound.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			schema        = fuzzSchema{fixed: make([]uint16, fuzzFixedLen)}
			before, after runtime.MemStats
		)
		runtime.ReadMemStats(&before)
		if r, err := NewDecoder(bytes.NewReader(data)); err == nil {
			schema.walk(r)
			decodeErr := r.Err()
			if err := r.Close(); decodeErr != nil && err == nil {
				t.Fatalf("Close succeeded after a decode error: %v", decodeErr)
			}
		}
		runtime.ReadMemStats(&after)

		// The decoder and its 64 KiB buffer, error values, and the decoded
		// values' own backing arrays.
		const slack = 256 << 10
		bound := uint64(slack + len(schema.tag) + 8*cap(schema.vals) + 3*cap(schema.triples))
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("decode allocated %d bytes, bound %d", got, bound)
		}
	})
}

// TestFuzzSeedsDecodeAsNamed pins what each FuzzReader seed exercises, so a
// FormatVersion bump that leaves the corpus behind fails here instead of
// leaving the fuzzer stuck at the header: the well-formed seeds decode, and
// each damaged one fails the way its name says.
func TestFuzzSeedsDecodeAsNamed(t *testing.T) {
	tagErr := errors.New("any error past the header")
	want := map[string]error{
		"valid":           nil,
		"all-zero":        nil,
		"empty-slices":    nil,
		"flipped-bit":     ErrChecksum,
		"truncated":       io.ErrUnexpectedEOF,
		"expect-long-tag": tagErr,
		"version3":        ErrVersion,
		"version4":        ErrVersion,
	}
	for seed, wantErr := range want {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReader", seed))
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
		raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		schema := fuzzSchema{fixed: make([]uint16, fuzzFixedLen)}
		r, err := NewDecoder(strings.NewReader(raw))
		if err == nil {
			schema.walk(r)
			err = r.Close()
		}
		ok := errors.Is(err, wantErr)
		if wantErr == tagErr {
			ok = err != nil && !errors.Is(err, ErrVersion)
		}
		if !ok {
			t.Errorf("%s: decode error %v, want %v", seed, err, wantErr)
		}
	}
}
