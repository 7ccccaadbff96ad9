// Package ckpt implements the binary checkpoint container used to serialize
// simulator state: a small magic/version/architecture header, a stream of
// primitive values and zero-run encoded POD sections, and a trailing CRC-64
// over everything in between.
//
// The format is deliberately *not* an interchange format. Slices of plain-old
// -data structs are dumped with their in-memory layout (native endianness,
// native word size, native field offsets), so a checkpoint is only guaranteed
// to restore under a binary built for the same architecture — the header's
// architecture probe refuses anything else. Padding bytes are written as
// zero, so equal states always encode to equal bytes. What the format buys
// in exchange is that saving or restoring a multi-megabyte predictor table is
// a scan for zero words plus a few contiguous copies instead of a per-field
// walk.
//
// A POD section's bytes are written as 8-byte words in runs: a header of two
// u32 counts (zero words, then literal words) followed by the literal words
// themselves, then the raw tail of fewer than 8 bytes. Cold cache arrays and
// predictor tables are mostly zero, so most of a core's state never reaches
// the stream. A literal run ends only at two or more consecutive zero words,
// which bounds an encoded section at its raw size plus one run header.
//
// A Stream latches the first error: after a failure every subsequent call
// is a cheap no-op (a decoder hands back zero values), so component walks
// stay free of error plumbing and the caller checks Err/Close once at the
// end. A decoder's Close verifies the checksum before it runs any queued
// Rebuilder, turning a torn or bit-flipped checkpoint into an error before
// any work is sized by its values.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// FormatVersion identifies the container layout. Bump on any incompatible
// change to the header or framing — or to the in-memory layout of a raw
// POD struct/slice a checkpoint embeds; component-level layout changes are
// caught by the section tags and, failing that, the checksum.
//
// Version history: 2 — metrics.Stats gained SkippedCycles and the pipeline's
// dyn/hotState records moved renameReady between them. 3 — the RSEP FIFO
// history ring shrank to 8-byte entries (implied CSNs, delta chain links)
// and stopped serializing its derivable bucket heads. 4 — POD slices
// zero-run encoded (raw structs too). 5 — cache tags and LRU stamps shrank
// to 32-bit keys and ticks, and each set's MRU hint is stored as its way
// alone.
const FormatVersion uint32 = 5

const magic = "RSEPCKPT"

// archProbe is written raw (native byte order, 8 bytes) and compared raw: a
// checkpoint read on a machine with different endianness or word conventions
// fails here instead of deserializing garbage.
const archProbe uint64 = 0x0102_0304_0506_0708

// wordProbe additionally pins the native int size (raw struct dumps embed
// int-typed fields).
const wordProbe = uint64(unsafe.Sizeof(int(0)))

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcAcc accumulates the CRC-64 of a stream. crc64.Update has a fixed cost
// per call (a 2 KiB table comparison, then byte-at-a-time work below 64
// bytes), so scalars, run headers and short literal runs are gathered in
// pend and checksummed together; long runs go straight through.
type crcAcc struct {
	crc  uint64
	n    int
	pend [1 << 10]byte
}

func (c *crcAcc) add(b []byte) {
	if len(b) <= len(c.pend)-c.n {
		c.n += copy(c.pend[c.n:], b)
		return
	}
	c.flush()
	if len(b) < len(c.pend) {
		c.n = copy(c.pend[:], b)
		return
	}
	c.crc = crc64.Update(c.crc, crcTable, b)
}

func (c *crcAcc) flush() {
	c.crc = crc64.Update(c.crc, crcTable, c.pend[:c.n])
	c.n = 0
}

// sum returns the CRC-64 of everything added so far.
func (c *crcAcc) sum() uint64 {
	c.flush()
	return c.crc
}

// ErrChecksum is returned (wrapped) by a decoder's Close when the trailing CRC
// does not match the bytes read.
var ErrChecksum = errors.New("ckpt: checksum mismatch")

// ErrVersion is returned (wrapped) by NewDecoder for a stream written under a
// different FormatVersion.
var ErrVersion = errors.New("ckpt: unsupported format version")

// ErrRun is returned (wrapped) when a POD section's run header is empty or
// reaches past the end of its destination.
var ErrRun = errors.New("ckpt: malformed zero run")

// ErrLength is returned (wrapped) when a geometry-sized section (Fixed)
// holds a different number of elements than its destination.
var ErrLength = errors.New("ckpt: section length mismatch")

// maxAlloc bounds the bytes behind any single length prefix a decoder
// allocates for (Slice, Str), so a corrupt length field fails cleanly
// instead of attempting a giant allocation. Geometry-sized tables are
// decoded in place by Fixed and are not subject to it.
const maxAlloc = 64 << 20

// Stream is one pass over a checkpoint, in either direction. A component
// states its layout once, as a walk that hands each of its fields to the
// stream by pointer: an encoder (NewEncoder) writes the value, a decoder
// (NewDecoder) overwrites it from the stream. The same walk therefore
// saves and restores, and the two cannot drift apart.
type Stream struct {
	dec     bool
	w       io.Writer
	r       io.Reader
	crc     crcAcc
	err     error
	scratch [8]byte   // fixed-width values, so coding them never allocates
	lit     [512]byte // masked literal words of padded POD sections

	// rebuild holds the decoder's queued Rebuilders; rebuildBuf backs it so
	// queuing a core's few never allocates.
	rebuild    []Rebuilder
	rebuildBuf [16]Rebuilder
}

// A Rebuilder holds state derived from the fields its walk hands a stream:
// an index, a filter, per-set counts, or a window redrawn from a source.
type Rebuilder interface {
	Rebuild() error
}

// NewEncoder starts a checkpoint stream on w, emitting the header. Writes go
// straight to w, many of them a few bytes long, so a caller writing to a
// file or socket should pass a buffered writer and flush it after Close.
func NewEncoder(w io.Writer) *Stream {
	s := &Stream{w: w}
	s.header() // can fail only by a write error, which s latches
	return s
}

// NewDecoder opens a checkpoint stream, validating the header. A version or
// architecture mismatch is an immediate error. Reads go straight to r, many
// of them a few bytes long, so a caller decoding a file or socket should pass
// a buffered reader; an in-memory reader (bytes.Reader, bytes.Buffer) needs
// no staging copy.
func NewDecoder(r io.Reader) (*Stream, error) {
	s := &Stream{dec: true, r: r}
	s.rebuild = s.rebuildBuf[:0]
	if err := s.header(); err != nil {
		return nil, err
	}
	return s, nil
}

// header codes the magic, the format version and the two architecture
// probes; a decoder refuses a stream whose header differs from its own.
func (s *Stream) header() error {
	head := s.scratch[:len(magic)]
	copy(head, magic)
	if s.raw(head); s.err == nil && string(head) != magic {
		return fmt.Errorf("ckpt: bad magic %q", head)
	}
	version := FormatVersion
	if s.U32(&version); s.err == nil && version != FormatVersion {
		return fmt.Errorf("%w %d, want %d", ErrVersion, version, FormatVersion)
	}
	probe := (*uint64)(unsafe.Pointer(&s.scratch[0]))
	*probe = archProbe
	if s.raw(s.scratch[:]); s.err == nil && *probe != archProbe {
		return errors.New("ckpt: checkpoint written on an incompatible architecture")
	}
	word := wordProbe
	if s.U64(&word); s.err == nil && word != wordProbe {
		return errors.New("ckpt: checkpoint written with an incompatible word size")
	}
	return s.err
}

// strBytes views s as bytes without copying. Only for passing to writers,
// which must not modify the slice.
func strBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Decoding reports whether s is a decoder. Walks branch on it only where
// the stored form differs from the live one.
func (s *Stream) Decoding() bool { return s.dec }

// Err returns the first error encountered.
func (s *Stream) Err() error { return s.err }

func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Stream) writeRaw(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.fail(err)
		return
	}
	s.crc.add(b)
}

func (s *Stream) readRaw(b []byte) {
	if s.err != nil {
		clear(b)
		return
	}
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.fail(fmt.Errorf("ckpt: truncated checkpoint: %w", err))
		clear(b)
		return
	}
	s.crc.add(b)
}

// raw codes b as is: an encoder writes it, a decoder fills it.
func (s *Stream) raw(b []byte) {
	if s.dec {
		s.readRaw(b)
	} else {
		s.writeRaw(b)
	}
}

// U64 codes a fixed-width unsigned value.
func (s *Stream) U64(v *uint64) {
	binary.LittleEndian.PutUint64(s.scratch[:], *v)
	s.raw(s.scratch[:8])
	*v = binary.LittleEndian.Uint64(s.scratch[:])
}

// U32 codes a fixed-width unsigned value.
func (s *Stream) U32(v *uint32) {
	binary.LittleEndian.PutUint32(s.scratch[:], *v)
	s.raw(s.scratch[:4])
	*v = binary.LittleEndian.Uint32(s.scratch[:])
}

// I64 codes a signed value.
func (s *Stream) I64(v *int64) {
	u := uint64(*v)
	s.U64(&u)
	*v = int64(u)
}

// Int codes a native int as 64 bits.
func (s *Stream) Int(v *int) {
	x := int64(*v)
	s.I64(&x)
	*v = int(x)
}

// Bool codes a boolean as one byte.
func (s *Stream) Bool(v *bool) {
	s.scratch[0] = 0
	if *v {
		s.scratch[0] = 1
	}
	s.raw(s.scratch[:1])
	*v = s.scratch[0] != 0
}

// Str codes a length-prefixed string.
func (s *Stream) Str(v *string) {
	n := uint64(len(*v))
	s.U64(&n)
	if !s.dec {
		s.writeRaw(strBytes(*v))
		return
	}
	*v = ""
	if n > maxAlloc {
		s.fail(fmt.Errorf("ckpt: implausible string length %d", n))
		return
	}
	if n == 0 || s.err != nil {
		return
	}
	b := make([]byte, n)
	s.readRaw(b)
	*v = unsafe.String(&b[0], len(b))
}

// Tag codes a section tag: an encoder writes it, a decoder fails unless the
// stream holds it, which detects format skew at the section boundary
// instead of at the final checksum. The stored tag is compared through the
// scratch array, never allocated: a damaged length fails here instead of
// sizing a buffer.
func (s *Stream) Tag(tag string) {
	n := uint64(len(tag))
	s.U64(&n)
	if !s.dec {
		s.writeRaw(strBytes(tag))
		return
	}
	if s.err != nil {
		return
	}
	if n != uint64(len(tag)) {
		s.fail(fmt.Errorf("ckpt: section tag of %d bytes, want %q", n, tag))
		return
	}
	for rest := tag; rest != "" && s.err == nil; {
		got := s.scratch[:min(len(rest), len(s.scratch))]
		s.readRaw(got)
		if s.err == nil && string(got) != rest[:len(got)] {
			s.fail(fmt.Errorf("ckpt: section tag differs from %q", tag))
		}
		rest = rest[len(got):]
	}
}

// Rebuild queues r to run once a decoder's Close has verified the checksum,
// so work sized by decoded values — redrawing a window, walking a range of
// sequence numbers — never runs on damaged bytes. An encoder ignores it.
func (s *Stream) Rebuild(r Rebuilder) {
	if s.dec {
		s.rebuild = append(s.rebuild, r)
	}
}

// Close ends the stream. An encoder writes the CRC trailer. A decoder
// consumes the trailer and verifies it, then runs the queued Rebuilders in
// order; leftover payload surfaces as a CRC mismatch. The Stream is
// unusable after.
func (s *Stream) Close() error {
	if s.err != nil {
		return s.err
	}
	sum := s.crc.sum()
	if !s.dec {
		binary.LittleEndian.PutUint64(s.scratch[:], sum)
		if _, err := s.w.Write(s.scratch[:]); err != nil {
			s.fail(err)
		}
		return s.err
	}
	if _, err := io.ReadFull(s.r, s.scratch[:]); err != nil {
		s.fail(fmt.Errorf("ckpt: truncated checkpoint: %w", err))
		return s.err
	}
	if binary.LittleEndian.Uint64(s.scratch[:]) != sum {
		s.fail(ErrChecksum)
		return s.err
	}
	for _, r := range s.rebuild {
		if err := r.Rebuild(); err != nil {
			s.fail(err)
			break
		}
	}
	return s.err
}

// podCache memoizes the per-type verdict: nil for a type that is not plain
// old data, else its padding mask (see padMask).
var podCache sync.Map // reflect.Type -> []uint64 (nil: not POD)

// noPadding is the cached mask of a POD type without padding bytes.
var noPadding = []uint64{}

// assertPOD panics if T contains pointers, slices, maps, strings or other
// reference kinds — raw-dumping such a type would serialize addresses — and
// otherwise returns T's padding mask. The check runs once per type; later
// calls are one map lookup. The type comes from a *T, not a T: boxing a zero
// T (as reflect.TypeOf(zero) and, before Go 1.25, reflect.TypeFor do) copies
// the whole value to the heap, 96 KiB for the branch predictor's BTB.
func assertPOD[T any]() []uint64 {
	t := reflect.TypeOf((*T)(nil)).Elem()
	m, seen := podCache.Load(t)
	if !seen {
		var mask []uint64
		if isPOD(t) {
			mask = padMask(t)
		}
		m, _ = podCache.LoadOrStore(t, mask)
	}
	mask := m.([]uint64)
	if mask == nil {
		panic(fmt.Sprintf("ckpt: type %v is not plain old data", t))
	}
	return mask
}

func isPOD(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return isPOD(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isPOD(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// padMask returns the word masks that clear the padding bytes of a section
// of t values (or of one t value): word i of the section is ANDed with
// mask[i%len(mask)]. Padding holds whatever the allocator or a copied stack
// temporary left there, so without the mask two equal states could encode
// differently. A type without padding gets the empty noPadding mask.
func padMask(t reflect.Type) []uint64 {
	for t.Kind() == reflect.Array {
		t = t.Elem() // a section is whole elements: the period is one element
	}
	size := int(t.Size())
	data := make([]byte, size)
	markData(t, data)
	if !bytes.Contains(data, []byte{0}) {
		return noPadding
	}
	// The pattern repeats every size bytes; a whole number of words covers
	// lcm(size, 8) bytes.
	period := size
	for period%8 != 0 {
		period += size
	}
	mask := make([]uint64, period/8)
	var w [8]byte
	for i := range mask {
		for k := range w {
			w[k] = data[(i*8+k)%size]
		}
		mask[i] = binary.LittleEndian.Uint64(w[:])
	}
	return mask
}

// markData sets the bytes of m (one t value) that hold data to 0xff,
// leaving padding zero.
func markData(t reflect.Type, m []byte) {
	switch t.Kind() {
	case reflect.Array:
		n := int(t.Elem().Size())
		for i := 0; i < t.Len(); i++ {
			markData(t.Elem(), m[i*n:(i+1)*n])
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			markData(f.Type, m[f.Offset:f.Offset+f.Type.Size()])
		}
	default:
		for i := range m {
			m[i] = 0xff
		}
	}
}

func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// zeroBlock lets zero runs be skipped a block at a time: cold tables are
// long stretches of zero words.
var zeroBlock [256]byte

// writePOD writes b's words as zero runs, each literal run straight from b,
// then b's raw tail of fewer than 8 bytes. A non-empty mask (padMask) clears
// padding first: masked words are tested for zero, and literal runs and the
// tail are written through the literal buffer.
func (w *Stream) writePOD(b []byte, mask []uint64) {
	const block = len(zeroBlock) / 8
	words := len(b) / 8
	if uint64(words) > math.MaxUint32 {
		w.fail(fmt.Errorf("ckpt: POD section of %d bytes exceeds the run counts", len(b)))
		return
	}
	// word returns the i-th 8-byte word of b, padding cleared. The load is
	// unaligned-safe because POD slices of small types (uint16, [3]byte)
	// need not sit on an 8-byte boundary.
	word := func(i int) uint64 {
		v := binary.LittleEndian.Uint64(b[i*8:])
		if len(mask) > 0 {
			v &= mask[i%len(mask)]
		}
		return v
	}
	for i := 0; i < words; {
		lit := i
		for lit+block <= words && bytes.Equal(b[lit*8:(lit+block)*8], zeroBlock[:]) {
			lit += block
		}
		for lit < words && word(lit) == 0 {
			lit++
		}
		// An isolated zero word stays inside the literal run: splitting there
		// would spend an 8-byte header to save 8 bytes.
		end := lit
		for end < words {
			if word(end) != 0 {
				end++
			} else if end+1 < words && word(end+1) != 0 {
				end += 2
			} else {
				break
			}
		}
		binary.LittleEndian.PutUint32(w.scratch[:4], uint32(lit-i))
		binary.LittleEndian.PutUint32(w.scratch[4:], uint32(end-lit))
		w.writeRaw(w.scratch[:])
		if len(mask) == 0 {
			w.writeRaw(b[lit*8 : end*8])
		} else {
			for lit < end {
				n := min(end-lit, len(w.lit)/8)
				for k := range n {
					binary.LittleEndian.PutUint64(w.lit[k*8:], word(lit+k))
				}
				w.writeRaw(w.lit[:n*8])
				lit += n
			}
		}
		i = end
	}
	tail := b[words*8:]
	if len(mask) > 0 && len(tail) > 0 {
		copy(w.lit[:8], tail)
		clear(w.lit[len(tail):8])
		v := binary.LittleEndian.Uint64(w.lit[:8]) & mask[words%len(mask)]
		binary.LittleEndian.PutUint64(w.lit[:8], v)
		tail = w.lit[:len(tail)]
	}
	w.writeRaw(tail)
}

// readPOD fills b from a section written by writePOD. b must be zero on
// entry: zero runs are skipped, not written. A run that is empty or reaches
// past b fails with ErrRun before anything is written for it.
func (r *Stream) readPOD(b []byte) {
	words := uint64(len(b) / 8)
	for pos := uint64(0); pos < words && r.err == nil; {
		r.readRaw(r.scratch[:])
		if r.err != nil {
			return
		}
		zeros := uint64(binary.LittleEndian.Uint32(r.scratch[:4]))
		lits := uint64(binary.LittleEndian.Uint32(r.scratch[4:]))
		if zeros+lits == 0 || zeros+lits > words-pos {
			r.fail(fmt.Errorf("%w: %d zero and %d literal words at word %d of %d",
				ErrRun, zeros, lits, pos, words))
			return
		}
		pos += zeros
		r.readRaw(b[pos*8 : (pos+lits)*8])
		pos += lits
	}
	r.readRaw(b[words*8:])
}

// Slice codes a length-prefixed, zero-run encoded POD slice. A decoder
// reuses *v's backing array when it is large enough.
func Slice[T any](s *Stream, v *[]T) {
	if !s.dec {
		Fixed(s, *v)
		return
	}
	assertPOD[T]()
	var n uint64
	s.U64(&n)
	if n > maxAlloc/max(uint64(unsafe.Sizeof(*new(T))), 1) {
		s.fail(fmt.Errorf("ckpt: implausible slice length %d", n))
		*v = (*v)[:0]
		return
	}
	if uint64(cap(*v)) >= n {
		*v = (*v)[:n]
		clear(*v)
	} else {
		*v = make([]T, n)
	}
	s.readPOD(rawBytes(*v))
}

// Fixed codes a POD slice whose length the geometry fixes, in the same form
// as Slice. A decoder fills v in place and fails with ErrLength unless the
// stream holds exactly len(v) elements.
func Fixed[T any](s *Stream, v []T) {
	mask := assertPOD[T]()
	n := uint64(len(v))
	s.U64(&n)
	if !s.dec {
		s.writePOD(rawBytes(v), mask)
		return
	}
	if n != uint64(len(v)) {
		s.fail(fmt.Errorf("%w: %d elements, want %d", ErrLength, n, len(v)))
		return
	}
	clear(v)
	s.readPOD(rawBytes(v))
}

// Struct codes one POD struct, zero-run encoded like a slice section.
func Struct[T any](s *Stream, v *T) {
	mask := assertPOD[T]()
	b := unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v))
	if !s.dec {
		s.writePOD(b, mask)
		return
	}
	clear(b)
	s.readPOD(b)
}
