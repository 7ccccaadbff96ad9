package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// Sliced execution persists two artifact kinds beside the result envelopes:
// per-slice Stats deltas (JSON envelopes, same integrity discipline as whole
// results) and checkpoint blobs (opaque binary, prefixed with a SHA-256 of
// the payload). Both live in their own subtrees — slices/ and ckpt/ — so the
// v1/ maintenance surface (Scan, Verify, Prune, Export/Import) keeps meaning
// "whole-job results" and never confuses a slice for one.
const (
	sliceDir = "slices"
	ckptDir  = "ckpt"
)

var (
	_ runner.SliceStore = (*Disk)(nil)
	_ runner.SliceStore = (*Tiered)(nil)

	_ runner.CheckpointReader = (*Disk)(nil)
	_ runner.CheckpointReader = (*Tiered)(nil)
)

// sliceKeyFields mirrors runner.SliceKey, keeping the envelope
// self-describing like keyFields does for whole results.
type sliceKeyFields struct {
	Bench      string `json:"bench"`
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`
	Warmup     uint64 `json:"warmup"`
	Start      uint64 `json:"start"`
	End        uint64 `json:"end"`
}

func toSliceFields(k runner.SliceKey) sliceKeyFields {
	return sliceKeyFields{Bench: k.Bench, ConfigHash: k.ConfigHash, Seed: k.Seed,
		Warmup: k.Warmup, Start: k.Start, End: k.End}
}

func (f sliceKeyFields) key() runner.SliceKey {
	return runner.SliceKey{Bench: f.Bench, ConfigHash: f.ConfigHash, Seed: f.Seed,
		Warmup: f.Warmup, Start: f.Start, End: f.End}
}

// sliceEnvelope is the on-disk form of one per-slice delta.
type sliceEnvelope struct {
	Schema   int             `json:"schema"`
	Key      sliceKeyFields  `json:"key"`
	Created  time.Time       `json:"created"`
	StatsSHA string          `json:"stats_sha256"`
	Stats    json.RawMessage `json:"stats"`
}

// SliceID returns the content address of a slice key.
func SliceID(k runner.SliceKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "slice\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d",
		k.Bench, k.ConfigHash, k.Seed, k.Warmup, k.Start, k.End)
	return hex.EncodeToString(h.Sum(nil))
}

// CheckpointID returns the content address of a checkpoint key.
func CheckpointID(k runner.CheckpointKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "ckpt\x00%s\x00%s\x00%d\x00%d\x00%d",
		k.Bench, k.ConfigHash, k.Seed, k.Warmup, k.At)
	return hex.EncodeToString(h.Sum(nil))
}

func (d *Disk) slicePath(id string) string {
	return filepath.Join(d.dir, sliceDir, id[:2], id+".json")
}

func (d *Disk) ckptPath(id string) string {
	return filepath.Join(d.dir, ckptDir, id[:2], id+".bin")
}

// GetSlice loads the per-slice delta for k. Damage of any kind is a stale
// miss, exactly like Get; the whole-result hit/miss counters are untouched —
// slices are an execution detail, not a result-plane outcome.
func (d *Disk) GetSlice(k runner.SliceKey) (*metrics.Stats, bool) {
	buf := readBufs.Get().(*envBuf)
	defer readBufs.Put(buf)
	err := readEnvelopeFile(buf, d.slicePath(SliceID(k)))
	if os.IsNotExist(err) {
		return nil, false
	}
	var env *sliceEnvelope
	var st *metrics.Stats
	if err == nil {
		env, st, err = decodeSliceEntry(buf.Bytes())
	}
	if err != nil || env.Key.key() != k {
		d.countStale()
		return nil, false
	}
	return st, true
}

// decodeSliceEntry parses and integrity-checks one slice envelope, like
// decodeEntry does a result envelope.
func decodeSliceEntry(raw []byte) (*sliceEnvelope, *metrics.Stats, error) {
	var env sliceEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, nil, fmt.Errorf("store: undecodable slice entry: %w", err)
	}
	if env.Schema != Schema {
		return nil, nil, fmt.Errorf("store: slice schema %d, want %d", env.Schema, Schema)
	}
	sum := sha256.Sum256(env.Stats)
	if got := hex.EncodeToString(sum[:]); got != env.StatsSHA {
		return nil, nil, fmt.Errorf("store: slice stats checksum mismatch")
	}
	var st metrics.Stats
	if err := json.Unmarshal(env.Stats, &st); err != nil {
		return nil, nil, fmt.Errorf("store: undecodable slice stats: %w", err)
	}
	return &env, &st, nil
}

// PutSlice persists the delta under k, best-effort like Put.
func (d *Disk) PutSlice(k runner.SliceKey, st *metrics.Stats) {
	statsRaw, err := json.Marshal(st)
	if err == nil {
		sum := sha256.Sum256(statsRaw)
		env := sliceEnvelope{
			Schema:   Schema,
			Key:      toSliceFields(k),
			Created:  d.nowLocked().UTC(),
			StatsSHA: hex.EncodeToString(sum[:]),
			Stats:    statsRaw,
		}
		var raw []byte
		if raw, err = json.Marshal(&env); err == nil {
			err = writeFileAtomic(d.slicePath(SliceID(k)), raw)
		}
	}
	if err != nil {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
	}
}

// GetCheckpoint loads the checkpoint blob stored at k into a fresh buffer
// (see ReadCheckpoint).
func (d *Disk) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	return d.ReadCheckpoint(k, new(bytes.Buffer))
}

// ReadCheckpoint loads the checkpoint blob stored at k into buf, sized from
// the open file, and returns it without the digest. The file is a 32-byte
// SHA-256 of the payload followed by the payload; a mismatch (truncation, bit
// rot, a torn write on a non-atomic filesystem) is a stale miss — the caller
// falls back to re-deriving the state, never restores from damaged bytes.
func (d *Disk) ReadCheckpoint(k runner.CheckpointKey, buf *bytes.Buffer) ([]byte, bool) {
	f, err := os.Open(d.ckptPath(CheckpointID(k)))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false
	}
	size := fi.Size()
	if size < sha256.Size || size > math.MaxInt {
		d.countStale()
		return nil, false
	}
	buf.Reset()
	buf.Grow(int(size))
	raw := buf.AvailableBuffer()[:size]
	if _, err := io.ReadFull(f, raw); err != nil {
		d.countStale()
		return nil, false
	}
	blob := raw[sha256.Size:]
	if sum := sha256.Sum256(blob); !bytes.Equal(sum[:], raw[:sha256.Size]) {
		d.countStale()
		return nil, false
	}
	return blob, true
}

func (d *Disk) countStale() {
	d.mu.Lock()
	d.stale++
	d.mu.Unlock()
}

// PutCheckpoint persists blob under k, best-effort. The digest and the
// payload go to the file as two writes, not one concatenated copy.
func (d *Disk) PutCheckpoint(k runner.CheckpointKey, blob []byte) {
	sum := sha256.Sum256(blob)
	if err := writeFileAtomic(d.ckptPath(CheckpointID(k)), sum[:], blob); err != nil {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
	}
}

// GetSlice consults memory, then disk, promoting a disk hit like Get.
func (t *Tiered) GetSlice(k runner.SliceKey) (*metrics.Stats, bool) {
	if st, ok := t.mem.GetSlice(k); ok {
		return st, true
	}
	st, ok := t.disk.GetSlice(k)
	if !ok {
		return nil, false
	}
	t.mem.PutSlice(k, st)
	return st, true
}

// PutSlice records the delta in memory and, unless read-only, on disk.
func (t *Tiered) PutSlice(k runner.SliceKey, st *metrics.Stats) {
	t.mem.PutSlice(k, st)
	if !t.readOnly {
		t.disk.PutSlice(k, st)
	}
}

// GetCheckpoint is ReadCheckpoint into a fresh buffer.
func (t *Tiered) GetCheckpoint(k runner.CheckpointKey) ([]byte, bool) {
	return t.ReadCheckpoint(k, new(bytes.Buffer))
}

// ReadCheckpoint reads a read-write store's checkpoints from disk only, into
// buf. A read-only store consults memory first, which holds the checkpoints
// it wrote, and returns those bytes as they are; then disk. Disk hits are not
// promoted: they can be read again.
func (t *Tiered) ReadCheckpoint(k runner.CheckpointKey, buf *bytes.Buffer) ([]byte, bool) {
	if t.readOnly {
		if blob, ok := t.mem.GetCheckpoint(k); ok {
			return blob, ok
		}
	}
	return t.disk.ReadCheckpoint(k, buf)
}

// PutCheckpoint writes the blob to disk, or, when read-only, keeps a copy in
// memory. A read-write store never holds checkpoint bytes in memory: they
// run to megabytes per slice boundary, and a failed disk write only costs a
// resume its fast-forward.
func (t *Tiered) PutCheckpoint(k runner.CheckpointKey, blob []byte) {
	if t.readOnly {
		t.mem.PutCheckpoint(k, blob)
		return
	}
	t.disk.PutCheckpoint(k, blob)
}
