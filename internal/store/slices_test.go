package store

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

func testSliceKey() runner.SliceKey {
	return runner.SliceKey{Bench: "mcf", ConfigHash: "abc123", Seed: 7,
		Warmup: 1000, Start: 0, End: 5000}
}

func testCkptKey() runner.CheckpointKey {
	return runner.CheckpointKey{Bench: "mcf", ConfigHash: "abc123", Seed: 7,
		Warmup: 1000, At: 5000}
}

func TestSliceRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testSliceKey()
	if _, ok := d.GetSlice(k); ok {
		t.Fatal("empty store returned a slice")
	}
	st := &metrics.Stats{Cycles: 1234, Committed: 5000, DRAMReads: 3, DRAMLatencySum: 600, AvgDRAMLatency: 200}
	d.PutSlice(k, st)
	got, ok := d.GetSlice(k)
	if !ok {
		t.Fatal("stored slice missed")
	}
	if *got != *st {
		t.Fatalf("slice round-trip: got %+v, want %+v", got, st)
	}
	// A different span is a different entry.
	other := k
	other.End = 9999
	if _, ok := d.GetSlice(other); ok {
		t.Fatal("mismatched span hit")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("write errors recorded: %v", err)
	}
}

func TestSliceCorruptionIsAStaleMiss(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testSliceKey()
	d.PutSlice(k, &metrics.Stats{Cycles: 1})
	path := d.slicePath(SliceID(k))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.GetSlice(k); ok {
		t.Fatal("corrupt slice entry served")
	}
	if c := d.Counters(); c.Stale != 1 {
		t.Fatalf("stale = %d, want 1", c.Stale)
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testCkptKey()
	if _, ok := d.GetCheckpoint(k); ok {
		t.Fatal("empty store returned a checkpoint")
	}
	blob := []byte("not a real checkpoint, but bytes are bytes")
	d.PutCheckpoint(k, blob)
	got, ok := d.GetCheckpoint(k)
	if !ok {
		t.Fatal("stored checkpoint missed")
	}
	if string(got) != string(blob) {
		t.Fatalf("checkpoint round-trip: got %q", got)
	}

	// Flip one payload byte: the SHA prefix must demote it to a stale miss.
	path := d.ckptPath(CheckpointID(k))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.GetCheckpoint(k); ok {
		t.Fatal("corrupt checkpoint served")
	}
	// Truncation below the hash prefix is also a stale miss, not a panic.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.GetCheckpoint(k); ok {
		t.Fatal("truncated checkpoint served")
	}
	if c := d.Counters(); c.Stale != 2 {
		t.Fatalf("stale = %d, want 2", c.Stale)
	}

	// A restore reads every checkpoint into one reused buffer. Damage read
	// into a buffer that holds a good blob is a stale miss that hands back
	// none of its bytes, the good blob then reads back exactly, and the
	// buffer, which fits from the first read, is never reallocated.
	large := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(large)
	k.At++
	d.PutCheckpoint(k, large)
	path = d.ckptPath(CheckpointID(k))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	first, ok := d.ReadCheckpoint(k, &buf)
	if !ok || !bytes.Equal(first, large) {
		t.Fatalf("large checkpoint read into a buffer: ok=%v, %d bytes", ok, len(first))
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x01
	for _, dmg := range []struct {
		name string
		raw  []byte
	}{
		{"flipped-byte", flipped},
		{"truncated", good[:len(good)-100]},
		{"shorter-than-digest", good[:10]},
	} {
		if err := os.WriteFile(path, dmg.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.ReadCheckpoint(k, &buf); ok || len(got) != 0 {
			t.Fatalf("%s checkpoint read into a used buffer: ok=%v, %d bytes", dmg.name, ok, len(got))
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok = d.ReadCheckpoint(k, &buf)
	if !ok || !bytes.Equal(got, large) {
		t.Fatalf("good checkpoint after damage: ok=%v, %d bytes", ok, len(got))
	}
	if &got[0] != &first[0] {
		t.Error("reading blobs that fit the buffer reallocated it")
	}
	if c := d.Counters(); c.Stale != 5 {
		t.Fatalf("stale = %d, want 5", c.Stale)
	}
}

func TestTieredSliceStore(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(d, false)
	sk, ck := testSliceKey(), testCkptKey()
	tiered.PutSlice(sk, &metrics.Stats{Cycles: 77})
	tiered.PutCheckpoint(ck, []byte("blob"))

	// A second tier over the same directory sees both through disk. It
	// promotes the slice to memory; checkpoints stay on disk only.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t2 := NewTiered(d2, false)
	if st, ok := t2.GetSlice(sk); !ok || st.Cycles != 77 {
		t.Fatalf("tiered slice read: %+v %v", st, ok)
	}
	if blob, ok := t2.GetCheckpoint(ck); !ok || string(blob) != "blob" {
		t.Fatalf("tiered checkpoint read: %q %v", blob, ok)
	}

	// Read-only tier: memory absorbs writes, disk stays clean.
	roDir := t.TempDir()
	roDisk, err := Attach(roDir)
	if err != nil {
		t.Fatal(err)
	}
	ro := NewTiered(roDisk, true)
	ro.PutSlice(sk, &metrics.Stats{Cycles: 1})
	ro.PutCheckpoint(ck, []byte("x"))
	if _, err := os.Stat(roDisk.slicePath(SliceID(sk))); !os.IsNotExist(err) {
		t.Fatal("read-only tier wrote a slice to disk")
	}
	if _, err := os.Stat(roDisk.ckptPath(CheckpointID(ck))); !os.IsNotExist(err) {
		t.Fatal("read-only tier wrote a checkpoint to disk")
	}
	if _, ok := ro.GetSlice(sk); !ok {
		t.Fatal("read-only memory tier lost the slice")
	}
}

// TestSliceSubtreesInvisibleToMaintenance: Scan/Verify over a store holding
// slices and checkpoints see only whole-job results — the maintenance surface
// must never confuse a slice for one.
func TestSliceSubtreesInvisibleToMaintenance(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.PutSlice(testSliceKey(), &metrics.Stats{Cycles: 1})
	d.PutCheckpoint(testCkptKey(), []byte("blob"))
	n := 0
	if err := d.Scan(func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Scan saw %d entries in a store holding only slices", n)
	}
}

// TestPutCheckpointBorrowsBlob pins the SliceStore checkpoint contract: the
// blob is borrowed, so the caller may overwrite its buffer as soon as
// PutCheckpoint returns without changing what GetCheckpoint serves.
func TestPutCheckpointBorrowsBlob(t *testing.T) {
	stores := map[string]func(t *testing.T) runner.SliceStore{
		"cache": func(*testing.T) runner.SliceStore { return runner.NewCache() },
		"disk":  func(t *testing.T) runner.SliceStore { return mustOpen(t) },
		"tiered-rw": func(t *testing.T) runner.SliceStore {
			return NewTiered(mustOpen(t), false)
		},
		"tiered-ro": func(t *testing.T) runner.SliceStore {
			d, err := Attach(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return NewTiered(d, true)
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			ss := open(t)
			k := testCkptKey()
			want := []byte("checkpoint bytes of the first boundary")
			buf := bytes.Clone(want)
			ss.PutCheckpoint(k, buf)
			copy(buf, "the next boundary reuses the buffer....")
			got, ok := ss.GetCheckpoint(k)
			if !ok {
				t.Fatal("stored checkpoint missed")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GetCheckpoint = %q after the caller reused its buffer, want %q", got, want)
			}
		})
	}
}

// TestTieredCheckpointsLiveOnDisk: a read-write tier keeps no checkpoint
// bytes in memory, so a checkpoint whose file is gone is a miss.
func TestTieredCheckpointsLiveOnDisk(t *testing.T) {
	d := mustOpen(t)
	tiered := NewTiered(d, false)
	k := testCkptKey()
	tiered.PutCheckpoint(k, []byte("blob"))
	if blob, ok := tiered.GetCheckpoint(k); !ok || string(blob) != "blob" {
		t.Fatalf("checkpoint read back: %q %v", blob, ok)
	}
	if err := os.Remove(d.ckptPath(CheckpointID(k))); err != nil {
		t.Fatal(err)
	}
	if blob, ok := tiered.GetCheckpoint(k); ok {
		t.Fatalf("checkpoint served from memory after its file was deleted: %q", blob)
	}
}
