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
// Both Writer and Reader latch the first error: after a failure every
// subsequent call is a cheap no-op (reads return zero values), so component
// save/load code can stay free of error plumbing and the caller checks
// Err/Close once at the end. Reader.Close verifies the checksum, turning any
// torn or bit-flipped checkpoint into an error instead of corrupt state.
package ckpt

import (
	"bufio"
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
// zero-run encoded (raw structs too).
const FormatVersion uint32 = 4

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

// ErrChecksum is returned (wrapped) by Reader.Close when the trailing CRC
// does not match the bytes read.
var ErrChecksum = errors.New("ckpt: checksum mismatch")

// ErrVersion is returned (wrapped) by NewReader for a stream written under a
// different FormatVersion.
var ErrVersion = errors.New("ckpt: unsupported format version")

// ErrRun is returned (wrapped) when a POD section's run header is empty or
// reaches past the end of its destination.
var ErrRun = errors.New("ckpt: malformed zero run")

// maxAlloc bounds the bytes behind any single length prefix the Reader
// allocates for (ReadSlice, Str), so a corrupt length field fails cleanly
// instead of attempting a giant allocation. Geometry-sized tables are read
// in place by ReadSliceFixed and are not subject to it.
const maxAlloc = 64 << 20

// Writer serializes a checkpoint stream.
type Writer struct {
	w       io.Writer
	crc     crcAcc
	err     error
	scratch [8]byte   // fixed-width values, so writing them never allocates
	lit     [512]byte // masked literal words of padded POD sections
}

// NewWriter starts a checkpoint stream on w, emitting the header. Writes go
// straight to w, many of them a few bytes long, so a caller writing to a
// file or socket should pass a buffered writer and flush it after Close.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: w}
	cw.writeRaw(strBytes(magic))
	cw.U32(FormatVersion)
	*(*uint64)(unsafe.Pointer(&cw.scratch[0])) = archProbe
	cw.writeRaw(cw.scratch[:])
	cw.U64(wordProbe)
	return cw
}

// strBytes views s as bytes without copying. Only for passing to writers,
// which must not modify the slice.
func strBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) writeRaw(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.fail(err)
		return
	}
	w.crc.add(b)
}

// U64 writes a fixed-width unsigned value.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.writeRaw(w.scratch[:8])
}

// U32 writes a fixed-width unsigned value.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:], v)
	w.writeRaw(w.scratch[:4])
}

// I64 writes a signed value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes a native int as 64 bits.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool writes a boolean.
func (w *Writer) Bool(v bool) {
	w.scratch[0] = 0
	if v {
		w.scratch[0] = 1
	}
	w.writeRaw(w.scratch[:1])
}

// F64 writes a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.writeRaw(strBytes(s))
}

// Mark writes a section tag. Reader.Expect with the same tag detects format
// skew at the section boundary instead of at the final checksum.
func (w *Writer) Mark(tag string) { w.Str(tag) }

// Close writes the CRC trailer. The Writer is unusable after.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint64(w.scratch[:], w.crc.sum())
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		w.fail(err)
	}
	return w.err
}

// Reader deserializes a checkpoint stream.
type Reader struct {
	br      *bufio.Reader
	crc     crcAcc
	err     error
	scratch [8]byte // fixed-width values, so reading them never allocates
}

// NewReader opens a checkpoint stream, validating the header. A version or
// architecture mismatch is an immediate error.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &Reader{br: bufio.NewReaderSize(r, 1<<16)}
	head := cr.scratch[:len(magic)]
	cr.readRaw(head)
	if cr.err == nil && string(head) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", head)
	}
	if v := cr.U32(); cr.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w %d, want %d", ErrVersion, v, FormatVersion)
	}
	cr.readRaw(cr.scratch[:])
	if cr.err == nil && *(*uint64)(unsafe.Pointer(&cr.scratch[0])) != archProbe {
		return nil, errors.New("ckpt: checkpoint written on an incompatible architecture")
	}
	if wp := cr.U64(); cr.err == nil && wp != wordProbe {
		return nil, errors.New("ckpt: checkpoint written with an incompatible word size")
	}
	if cr.err != nil {
		return nil, cr.err
	}
	return cr, nil
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) readRaw(b []byte) {
	if r.err != nil {
		clear(b)
		return
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.fail(fmt.Errorf("ckpt: truncated checkpoint: %w", err))
		clear(b)
		return
	}
	r.crc.add(b)
}

// U64 reads a fixed-width unsigned value.
func (r *Reader) U64() uint64 {
	r.readRaw(r.scratch[:8])
	return binary.LittleEndian.Uint64(r.scratch[:])
}

// U32 reads a fixed-width unsigned value.
func (r *Reader) U32() uint32 {
	r.readRaw(r.scratch[:4])
	return binary.LittleEndian.Uint32(r.scratch[:])
}

// I64 reads a signed value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a native int written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	r.readRaw(r.scratch[:1])
	return r.scratch[0] != 0
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U64()
	if n > maxAlloc {
		r.fail(fmt.Errorf("ckpt: implausible string length %d", n))
		return ""
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, n)
	r.readRaw(b)
	return unsafe.String(&b[0], len(b))
}

// Expect consumes a section tag and fails unless it matches. The stored tag
// is compared through the scratch array, never allocated: a damaged length
// fails here instead of sizing a buffer.
func (r *Reader) Expect(tag string) {
	n := r.U64()
	if r.err != nil {
		return
	}
	if n != uint64(len(tag)) {
		r.fail(fmt.Errorf("ckpt: section tag of %d bytes, want %q", n, tag))
		return
	}
	for rest := tag; rest != "" && r.err == nil; {
		got := r.scratch[:min(len(rest), len(r.scratch))]
		r.readRaw(got)
		if r.err == nil && string(got) != rest[:len(got)] {
			r.fail(fmt.Errorf("ckpt: section tag differs from %q", tag))
		}
		rest = rest[len(got):]
	}
}

// Close consumes the CRC trailer and verifies it. It must be called after the
// last value has been read; leftover payload surfaces as a CRC mismatch.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if _, err := io.ReadFull(r.br, r.scratch[:]); err != nil {
		r.fail(fmt.Errorf("ckpt: truncated checkpoint: %w", err))
		return r.err
	}
	if binary.LittleEndian.Uint64(r.scratch[:]) != r.crc.sum() {
		r.fail(ErrChecksum)
	}
	return r.err
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
func (w *Writer) writePOD(b []byte, mask []uint64) {
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
func (r *Reader) readPOD(b []byte) {
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

// Slice writes a length-prefixed, zero-run encoded dump of a POD slice.
func Slice[T any](w *Writer, s []T) {
	mask := assertPOD[T]()
	w.U64(uint64(len(s)))
	w.writePOD(rawBytes(s), mask)
}

// ReadSlice reads a slice written by Slice, reusing s's backing array when it
// is large enough. It returns the restored slice.
func ReadSlice[T any](r *Reader, s []T) []T {
	assertPOD[T]()
	n := r.U64()
	if n > maxAlloc/max(uint64(unsafe.Sizeof(*new(T))), 1) {
		r.fail(fmt.Errorf("ckpt: implausible slice length %d", n))
		return s[:0]
	}
	if uint64(cap(s)) >= n {
		s = s[:n]
		clear(s)
	} else {
		s = make([]T, n)
	}
	r.readPOD(rawBytes(s))
	return s
}

// ReadSliceFixed reads a slice written by Slice into s in place, failing
// unless the stored length equals len(s). Use it for geometry-sized tables
// whose length is fixed by the configuration.
func ReadSliceFixed[T any](r *Reader, s []T) {
	assertPOD[T]()
	if n := r.U64(); n != uint64(len(s)) {
		r.fail(fmt.Errorf("ckpt: slice length %d, want %d (geometry mismatch)", n, len(s)))
		return
	}
	clear(s)
	r.readPOD(rawBytes(s))
}

// Struct writes one POD struct, zero-run encoded like a slice section.
func Struct[T any](w *Writer, v *T) {
	mask := assertPOD[T]()
	w.writePOD(unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v)), mask)
}

// ReadStruct reads a struct written by Struct.
func ReadStruct[T any](r *Reader, v *T) {
	assertPOD[T]()
	b := unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v))
	clear(b)
	r.readPOD(b)
}
