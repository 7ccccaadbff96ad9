package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rsepsim/internal/runner"
)

// Entry describes one stored result, as seen by Scan.
type Entry struct {
	ID      string
	Key     runner.Key
	Path    string
	Size    int64
	Created time.Time
	SimTime time.Duration
}

// Scan walks every valid entry in the store in deterministic (ID) order and
// calls fn for each. Damaged entries are skipped — Verify is the API that
// surfaces them. Scan returns fn's first error, if any.
func (d *Disk) Scan(fn func(Entry) error) error {
	entries, _, err := d.index()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Corrupt describes one entry Verify rejected.
type Corrupt struct {
	Path   string
	Reason error
}

// Verify re-reads every entry file, re-hashes its stats payload, and checks
// that it decodes, matches its checksum, and lives at the path its key
// demands. It returns the number of valid entries and the list of rejects.
func (d *Disk) Verify() (valid int, bad []Corrupt, err error) {
	entries, rejects, err := d.index()
	if err != nil {
		return 0, nil, err
	}
	return len(entries), rejects, nil
}

// index reads every entry file once, splitting them into valid entries
// (sorted by ID) and rejects.
func (d *Disk) index() ([]Entry, []Corrupt, error) {
	var entries []Entry
	var rejects []Corrupt
	var buf envBuf
	root := filepath.Join(d.dir, version)
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			// The version dir exists (Open made it); a vanished subtree
			// mid-walk is another process pruning — not corruption.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if de.IsDir() || !isEntryName(de.Name()) {
			return nil
		}
		if err := readEnvelopeFile(&buf, path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			rejects = append(rejects, Corrupt{Path: path, Reason: err})
			return nil
		}
		env, _, err := decodeEntry(buf.Bytes())
		if err != nil {
			rejects = append(rejects, Corrupt{Path: path, Reason: err})
			return nil
		}
		id := ID(env.Key.key())
		if want := d.path(id); want != path {
			rejects = append(rejects, Corrupt{Path: path, Reason: fmt.Errorf("store: entry for %s misplaced (want %s)", id[:12], want)})
			return nil
		}
		entries = append(entries, Entry{
			ID:      id,
			Key:     env.Key.key(),
			Path:    path,
			Size:    int64(buf.Len()),
			Created: env.Created,
			SimTime: time.Duration(env.SimNanos),
		})
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries, rejects, nil
}

// PruneOptions bounds what Prune keeps. Zero values mean "no limit".
type PruneOptions struct {
	// MaxAge removes entries whose envelope Created time is older.
	MaxAge time.Duration
	// MaxBytes evicts oldest-first until the summed entry size fits.
	MaxBytes int64
	// Corrupt also removes entries Verify would reject.
	Corrupt bool
}

// Prune applies opt and returns how many entries were removed and how many
// bytes they occupied. Leftover tmp files older than one hour are always
// collected. Prune is safe to run while pools are using the directory:
// readers treat a vanished entry as a miss.
func (d *Disk) Prune(opt PruneOptions) (removed int, freed int64, err error) {
	entries, rejects, err := d.index()
	if err != nil {
		return 0, 0, err
	}
	now := d.nowLocked()

	// drop reports whether the file is actually gone — the size-budget
	// loop must not count bytes an os.Remove failure left on disk.
	drop := func(path string, size int64) bool {
		if rmErr := os.Remove(path); rmErr == nil || errors.Is(rmErr, fs.ErrNotExist) {
			removed++
			freed += size
			return true
		} else if err == nil {
			err = rmErr
		}
		return false
	}

	if opt.Corrupt {
		for _, c := range rejects {
			fi, statErr := os.Stat(c.Path)
			size := int64(0)
			if statErr == nil {
				size = fi.Size()
			}
			drop(c.Path, size)
		}
	}

	var kept []Entry
	var total int64
	for _, e := range entries {
		if opt.MaxAge > 0 && now.Sub(e.Created) > opt.MaxAge {
			drop(e.Path, e.Size)
			continue
		}
		kept = append(kept, e)
		total += e.Size
	}

	if opt.MaxBytes > 0 && total > opt.MaxBytes {
		sort.Slice(kept, func(i, j int) bool { return kept[i].Created.Before(kept[j].Created) })
		for _, e := range kept {
			if total <= opt.MaxBytes {
				break
			}
			if drop(e.Path, e.Size) {
				total -= e.Size
			}
		}
	}

	d.collectTmp(now)
	return removed, freed, err
}

// collectTmp removes abandoned tmp files (a crashed writer's leftovers)
// older than one hour — young ones may belong to a live writer.
func (d *Disk) collectTmp(now time.Time) {
	_ = filepath.WalkDir(filepath.Join(d.dir, version), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
			return nil
		}
		if fi, err := de.Info(); err == nil && now.Sub(fi.ModTime()) > time.Hour {
			os.Remove(path)
		}
		return nil
	})
}
