// Package store persists simulation results across processes and machines.
//
// A Disk store is a content-addressed directory of envelope files, one per
// runner.Key: the key's fields hash to a 256-bit entry ID, and the entry
// lives at v1/<id[:2]>/<id>.json under a 256-way fan-out so directories stay
// small at paper scale. Writes are crash-safe (tmp file + atomic rename in
// the same directory), so readers never observe a half-written entry and two
// pools — even in different processes — can share one directory with no
// locking: racing writers of the same key write identical content, and the
// last rename wins.
//
// Each entry is a versioned envelope carrying the schema version, the full
// key, the creation time, the wall-clock cost of the simulation that
// produced it, a SHA-256 checksum of the stats payload, and the stats
// themselves. Damage of any kind — truncation, bit flips, a mis-keyed or
// renamed file, a future schema — demotes the entry to a miss, never an
// error: the caller simply re-simulates and overwrites it.
//
// Tiered layers the in-process runner.Cache over a Disk so hot keys skip
// the filesystem; it is the runner.Store that the commands mount via
// -cache-dir/-cache. Maintenance (scan, verify, prune, export/import) is
// exposed here and driven by cmd/rsepcache.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// Schema is the envelope schema version this package reads and writes.
// Entries with a different schema are ignored (treated as misses) and
// reported by Verify, never deleted implicitly.
const Schema = 1

// version is the layout directory entries live under; bumping Schema should
// bump this too so old and new layouts coexist in one cache directory.
const version = "v1"

// envelope is the on-disk form of one entry. Stats stays raw so the
// checksum covers the exact bytes written, independent of decode/re-encode.
type envelope struct {
	Schema   int             `json:"schema"`
	Key      keyFields       `json:"key"`
	Created  time.Time       `json:"created"`
	SimNanos int64           `json:"sim_nanos"`
	StatsSHA string          `json:"stats_sha256"`
	Stats    json.RawMessage `json:"stats"`
}

// keyFields mirrors runner.Key field-for-field so the envelope is
// self-describing: an entry can be re-keyed, audited, or re-indexed without
// the filename.
type keyFields struct {
	Bench      string `json:"bench"`
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`
	Warmup     uint64 `json:"warmup"`
	Measure    uint64 `json:"measure"`
}

func toFields(k runner.Key) keyFields {
	return keyFields{Bench: k.Bench, ConfigHash: k.ConfigHash, Seed: k.Seed, Warmup: k.Warmup, Measure: k.Measure}
}

func (f keyFields) key() runner.Key {
	return runner.Key{Bench: f.Bench, ConfigHash: f.ConfigHash, Seed: f.Seed, Warmup: f.Warmup, Measure: f.Measure}
}

// ID returns the content address of k: the hex SHA-256 of its canonical
// field serialization. Two keys collide only if SHA-256 does.
func ID(k runner.Key) string {
	b := make([]byte, 0, 128)
	b = append(append(b, k.Bench...), 0)
	b = append(append(b, k.ConfigHash...), 0)
	b = append(strconv.AppendInt(b, k.Seed, 10), 0)
	b = append(strconv.AppendUint(b, k.Warmup, 10), 0)
	b = strconv.AppendUint(b, k.Measure, 10)
	sum := sha256.Sum256(b)
	var id [2 * sha256.Size]byte
	hex.Encode(id[:], sum[:])
	return string(id[:])
}

// Disk is a persistent result store rooted at one directory. It is safe for
// concurrent use within a process, and the on-disk format is safe for
// concurrent use across processes (atomic renames; identical content per
// key). The zero value is not usable — call Open.
type Disk struct {
	dir string

	mu      sync.Mutex
	hits    uint64
	misses  uint64
	stale   uint64
	lastErr error

	// now is stubbed in tests that need deterministic entry ages.
	now func() time.Time
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, version), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Disk{dir: dir, now: time.Now}, nil
}

// Attach returns a handle to dir without creating anything on disk: reads
// from a directory that does not exist simply miss, and the write paths
// create what they need on demand. This is the handle for inspecting a
// store that may be read-only-mounted or may not exist (Mount's "ro" mode,
// cmd/rsepcache); Open is the same handle but surfaces an unusable
// directory at mount time instead of as silent Put failures.
func Attach(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	return &Disk{dir: dir, now: time.Now}, nil
}

// Dir returns the root directory of the store.
func (d *Disk) Dir() string { return d.dir }

// path returns the entry file for id.
func (d *Disk) path(id string) string {
	return filepath.Join(d.dir, version, id[:2], id+".json")
}

// Get loads the entry for k. Any damage — unreadable, truncated, corrupt,
// mis-keyed, or foreign-schema entries — counts as a stale miss; Get never
// returns an error.
func (d *Disk) Get(k runner.Key) (*metrics.Stats, bool) {
	st, _, err := d.load(k)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		if !os.IsNotExist(err) {
			d.stale++
		}
		d.misses++
		return nil, false
	}
	d.hits++
	return st, true
}

// load reads and fully validates the entry for k, returning the decoded
// stats and envelope. A missing file returns an os.IsNotExist error; any
// other failure means the entry exists but is unusable.
func (d *Disk) load(k runner.Key) (*metrics.Stats, *envelope, error) {
	buf := readBufs.Get().(*envBuf)
	defer readBufs.Put(buf)
	if err := readEnvelopeFile(buf, d.path(ID(k))); err != nil {
		return nil, nil, err
	}
	env, st, err := decodeEntry(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if env.Key.key() != k {
		return nil, nil, fmt.Errorf("store: entry keyed for %v, want %v", env.Key.key(), k)
	}
	return st, env, nil
}

// envBuf is the buffer readEnvelope reads into, with the limited reader it
// wraps the source in: kept alongside the buffer, the wrapper is not
// allocated again on every read.
type envBuf struct {
	bytes.Buffer
	lr io.LimitedReader
}

// readBufs recycles the read buffers of load and GetSlice: the decoders
// copy everything they return out of the raw bytes, and a run answered from
// the store reads one entry per job.
var readBufs = sync.Pool{New: func() any { return new(envBuf) }}

// maxEnvelope caps the bytes read for one result or slice envelope. The
// envelopes Disk.write and PutSlice emit are about 1 KiB, so a larger file or
// bundle member is damage, refused before it is read whole.
const maxEnvelope = 64 << 10

var errOversized = fmt.Errorf("store: envelope exceeds %d bytes", maxEnvelope)

// readEnvelope reads one envelope from r into buf, which it resets first. It
// stops one byte past maxEnvelope and then fails with errOversized.
func readEnvelope(buf *envBuf, r io.Reader) error {
	buf.Reset()
	buf.lr = io.LimitedReader{R: r, N: maxEnvelope + 1}
	_, err := buf.ReadFrom(&buf.lr)
	buf.lr.R = nil // the pool must not keep the source alive
	if err != nil {
		return err
	}
	if buf.Len() > maxEnvelope {
		return errOversized
	}
	return nil
}

// readEnvelopeFile is readEnvelope over the file at path. A missing file
// returns an os.IsNotExist error.
func readEnvelopeFile(buf *envBuf, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return readEnvelope(buf, f)
}

// decodeEntry parses and integrity-checks one envelope: schema, checksum
// over the raw stats bytes, and a stats decode.
func decodeEntry(raw []byte) (*envelope, *metrics.Stats, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, nil, fmt.Errorf("store: undecodable entry: %w", err)
	}
	if env.Schema != Schema {
		return nil, nil, fmt.Errorf("store: schema %d, want %d", env.Schema, Schema)
	}
	sum := sha256.Sum256(env.Stats)
	var got [2 * sha256.Size]byte
	if hex.Encode(got[:], sum[:]); string(got[:]) != env.StatsSHA {
		return nil, nil, fmt.Errorf("store: stats checksum mismatch")
	}
	var st metrics.Stats
	if err := json.Unmarshal(env.Stats, &st); err != nil {
		return nil, nil, fmt.Errorf("store: undecodable stats: %w", err)
	}
	return &env, &st, nil
}

// LoadRaw returns the raw envelope bytes of the entry with the given
// content address, fully validated (decode, checksum, key/path agreement) —
// the read path behind GET /v1/results/{id}, where the bytes are relayed
// verbatim and the id doubles as a strong ETag. A missing entry returns an
// os.IsNotExist error so callers can map it to 404; any other error means
// the entry exists but is unusable. LoadRaw leaves the hit/miss counters
// alone: they track result-plane lookups (simulations avoided), not
// serving-path reads.
func (d *Disk) LoadRaw(id string) ([]byte, error) {
	if len(id) != 2*sha256.Size || strings.ToLower(id) != id {
		return nil, fmt.Errorf("store: malformed entry id %q", id)
	}
	if _, err := hex.DecodeString(id); err != nil {
		return nil, fmt.Errorf("store: malformed entry id %q", id)
	}
	var buf envBuf
	if err := readEnvelopeFile(&buf, d.path(id)); err != nil {
		return nil, err
	}
	env, _, err := decodeEntry(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if got := ID(env.Key.key()); got != id {
		return nil, fmt.Errorf("store: entry %s keyed for %s", id[:12], got[:12])
	}
	return buf.Bytes(), nil
}

// Put persists st under k via an atomic tmp+rename write. Put is
// best-effort: an I/O failure is recorded (see Err) but never surfaced to
// the simulation that produced the result.
func (d *Disk) Put(k runner.Key, st *metrics.Stats, simTime time.Duration) {
	if err := d.write(k, st, simTime, d.nowLocked()); err != nil {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
	}
}

func (d *Disk) nowLocked() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now()
}

// write materializes one entry. The tmp file is created in the entry's own
// fan-out directory so the rename cannot cross filesystems and is atomic.
func (d *Disk) write(k runner.Key, st *metrics.Stats, simTime time.Duration, created time.Time) error {
	statsRaw, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(statsRaw)
	env := envelope{
		Schema:   Schema,
		Key:      toFields(k),
		Created:  created.UTC(),
		SimNanos: int64(simTime),
		StatsSHA: hex.EncodeToString(sum[:]),
		Stats:    statsRaw,
	}
	raw, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return d.writeRaw(ID(k), raw)
}

// writeRaw atomically installs raw as the entry file for id.
func (d *Disk) writeRaw(id string, raw []byte) error {
	return writeFileAtomic(d.path(id), raw)
}

// writeFileAtomic installs the concatenation of parts at final via
// tmp+rename, creating the parent directory on demand — the shared write
// discipline of every subtree (result envelopes, slice envelopes, checkpoint
// blobs).
func writeFileAtomic(final string, parts ...[]byte) error {
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Only a failed write leaves the temp file behind: a successful rename
	// consumes it, so removing it then would be a wasted unlink. Closing an
	// already closed file is a harmless no-op error.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fail(err)
	}
	return nil
}

// Counters reports cumulative lookup statistics.
func (d *Disk) Counters() runner.Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return runner.Counters{Hits: d.hits, Misses: d.misses, Stale: d.stale}
}

// Err returns the most recent write failure, if any. Puts are best-effort;
// commands check this once at exit to warn that the cache is not absorbing
// results.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastErr
}

// isEntryName reports whether name looks like an entry file.
func isEntryName(name string) bool {
	return strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".tmp-")
}
