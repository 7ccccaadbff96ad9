package store

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
)

// Export writes every valid entry to w as a tar bundle whose member names
// are store-relative (v1/<fanout>/<id>.json), so a bundle untars directly
// into a cache directory and Import can stream it anywhere else. Entries
// are emitted in ID order, making equal stores produce identical bundles.
func (d *Disk) Export(w io.Writer) (exported int, err error) {
	tw := tar.NewWriter(w)
	err = d.Scan(func(e Entry) error {
		raw, err := os.ReadFile(e.Path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // pruned mid-export
			}
			return err
		}
		hdr := &tar.Header{
			Name:    path.Join(version, e.ID[:2], e.ID+".json"),
			Mode:    0o644,
			Size:    int64(len(raw)),
			ModTime: e.Created,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(raw); err != nil {
			return err
		}
		exported++
		return nil
	})
	if err != nil {
		return exported, fmt.Errorf("store: export: %w", err)
	}
	if err := tw.Close(); err != nil {
		return exported, fmt.Errorf("store: export: %w", err)
	}
	return exported, nil
}

// Import merges a bundle produced by Export into the store. Every member is
// fully validated (schema, checksum, key/path agreement) before being
// installed with the same atomic tmp+rename as a live Put; damaged or
// foreign members are counted and left out. A member whose entry is already
// present locally is skipped only if the local copy itself validates —
// otherwise the bundle's good copy overwrites it, so importing heals
// corruption that Verify reports.
func (d *Disk) Import(r io.Reader) (imported, skipped, rejected int, err error) {
	tr := tar.NewReader(r)
	var buf envBuf
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return imported, skipped, rejected, nil
		}
		if err != nil {
			return imported, skipped, rejected, fmt.Errorf("store: import: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg || !isEntryName(path.Base(hdr.Name)) {
			continue
		}
		if err := readEnvelope(&buf, tr); errors.Is(err, errOversized) {
			rejected++ // the rest of the member is skipped, never read whole
			continue
		} else if err != nil {
			return imported, skipped, rejected, fmt.Errorf("store: import %s: %w", hdr.Name, err)
		}
		env, _, err := decodeEntry(buf.Bytes())
		if err != nil {
			rejected++
			continue
		}
		id := ID(env.Key.key())
		if base := path.Base(hdr.Name); base != id+".json" {
			rejected++ // member name disagrees with its own key
			continue
		}
		if _, _, err := d.load(env.Key.key()); err == nil {
			skipped++ // valid local copy: deterministic results, same content
			continue
		}
		// No local copy, or a damaged one: install the bundle's.
		if err := d.writeRaw(id, buf.Bytes()); err != nil {
			return imported, skipped, rejected, fmt.Errorf("store: import %s: %w", hdr.Name, err)
		}
		imported++
	}
}
