package store

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

// Tiered is the runner.Store the commands mount: an in-process runner.Cache
// over a persistent Disk. Lookups hit memory first, then disk (promoting the
// entry to memory); writes always land in memory and, unless the store is
// read-only, on disk. Checkpoint blobs are the exception: a read-write store
// keeps them on disk only, and no store promotes them (see GetCheckpoint
// and PutCheckpoint). Counters are tracked at this
// layer, so a hit means "served without simulating" whichever tier supplied
// it, and a miss means exactly one simulation happened.
type Tiered struct {
	mem      *runner.Cache
	disk     *Disk
	readOnly bool
}

var _ runner.Store = (*Tiered)(nil)

// NewTiered layers a fresh in-process cache over disk. When readOnly is
// set, Put updates only the memory tier — the directory is never written.
func NewTiered(disk *Disk, readOnly bool) *Tiered {
	return &Tiered{mem: runner.NewCache(), disk: disk, readOnly: readOnly}
}

// Disk returns the persistent tier (for maintenance and error reporting).
func (t *Tiered) Disk() *Disk { return t.disk }

// Get consults memory, then disk. A disk hit is promoted to memory so the
// next lookup of the same key skips the filesystem.
func (t *Tiered) Get(k runner.Key) (*metrics.Stats, bool) {
	if st, ok := t.mem.Get(k); ok {
		return st, true
	}
	st, ok := t.disk.Get(k)
	if !ok {
		return nil, false
	}
	t.mem.Put(k, st, 0)
	return st, true
}

// Warm preloads the memory tier with every valid entry on disk, so a
// serving process answers hot keys without touching the filesystem from the
// first request on. It returns how many entries and how many raw bytes were
// loaded. Warming bypasses the lookup counters entirely — hits and misses
// keep meaning "requests served / not served without simulating", whether or
// not the store was warmed. Damaged entries are skipped, exactly as Get
// would skip them.
func (t *Tiered) Warm() (entries int, bytes int64, err error) {
	err = t.disk.Scan(func(e Entry) error {
		st, _, loadErr := t.disk.load(e.Key)
		if loadErr != nil {
			// Entry vanished or decayed between the scan and the read:
			// Get-equivalent behavior is to skip it, not fail the warm-up.
			return nil
		}
		t.mem.Put(e.Key, st, e.SimTime)
		entries++
		bytes += e.Size
		return nil
	})
	return entries, bytes, err
}

// Put records st in memory and, unless read-only, on disk.
func (t *Tiered) Put(k runner.Key, st *metrics.Stats, simTime time.Duration) {
	t.mem.Put(k, st, simTime)
	if !t.readOnly {
		t.disk.Put(k, st, simTime)
	}
}

// Counters reports lookup statistics for the store as a whole. Memory
// misses that disk absorbed are not misses of the tiered store, so:
// hits = mem hits + disk hits, misses = disk misses, stale = disk stale.
func (t *Tiered) Counters() runner.Counters {
	mem, disk := t.mem.Counters(), t.disk.Counters()
	return runner.Counters{
		Hits:   mem.Hits + disk.Hits,
		Misses: disk.Misses,
		Stale:  disk.Stale,
	}
}

// DefaultDir returns the per-user cache directory (~/.cache/rsepsim on
// Linux), or an error when the environment defines no cache home.
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache dir: %w", err)
	}
	return filepath.Join(base, "rsepsim"), nil
}

// Mount interprets the -cache/-cache-dir flag pair shared by the commands:
// mode "off" yields a process-local in-memory store, "ro" a read-only tiered
// store, and "rw" the full persistent tier. The returned Disk is nil in
// "off" mode. In "ro" mode the directory is never touched — not even
// created — so a shared or read-only-mounted cache can be consumed as-is
// (a missing directory just means every lookup misses).
func Mount(dir, mode string) (runner.Store, *Disk, error) {
	switch mode {
	case "off":
		return runner.NewCache(), nil, nil
	case "ro":
		disk, err := Attach(dir)
		if err != nil {
			return nil, nil, err
		}
		return NewTiered(disk, true), disk, nil
	case "rw":
		disk, err := Open(dir)
		if err != nil {
			return nil, nil, err
		}
		return NewTiered(disk, false), disk, nil
	}
	return nil, nil, fmt.Errorf("store: unknown cache mode %q (want off, ro or rw)", mode)
}

// MountFlags is Mount plus the fallback every command shares: when the
// environment yields no cache directory (dir == "") and the mode wants one,
// it warns on stderr in prog's name and degrades to "off" instead of
// failing.
func MountFlags(prog, dir, mode string) (runner.Store, *Disk, error) {
	if dir == "" && mode != "off" {
		fmt.Fprintf(os.Stderr, "%s: no user cache dir; falling back to -cache off\n", prog)
		mode = "off"
	}
	return Mount(dir, mode)
}

// WarnServerIgnored notes, in prog's name, any explicitly-set local store
// flag that has no effect because -server hands the store to the daemon —
// the counterpart of MountFlags for the remote path.
func WarnServerIgnored(prog string) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cache", "cache-dir", "cache-warm":
			fmt.Fprintf(os.Stderr, "%s: -%s is ignored with -server (the daemon owns the store)\n", prog, f.Name)
		}
	})
}

// WarmFlags interprets the -cache-warm flag shared by the commands: when
// enabled it preloads the memory tier from disk and logs entries/bytes on
// stderr in prog's name. A store without a persistent tier ("off" mode)
// says so instead of silently doing nothing.
func WarmFlags(prog string, st runner.Store, enabled bool) error {
	if !enabled {
		return nil
	}
	tiered, ok := st.(*Tiered)
	if !ok {
		fmt.Fprintf(os.Stderr, "%s: cache warm-up: no persistent tier mounted; skipping\n", prog)
		return nil
	}
	start := time.Now()
	entries, bytes, err := tiered.Warm()
	if err != nil {
		return fmt.Errorf("store: cache warm-up: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: cache warm-up: %d entries, %d bytes in %.2fs\n",
		prog, entries, bytes, time.Since(start).Seconds())
	return nil
}

// WarnWrites reports recorded write failures on stderr in prog's name —
// the end-of-run check that tells the operator the store is not absorbing
// results. A nil disk (off mode) is a no-op.
func WarnWrites(prog string, disk *Disk) {
	if disk == nil {
		return
	}
	if err := disk.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: result store writes failing: %v\n", prog, err)
	}
}
