package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"arbor/internal/replica"
)

// snapshotName returns the checkpoint filename for a site.
func snapshotName(site int) string {
	return fmt.Sprintf("site-%d.snap", site)
}

// Checkpoint writes every replica's store to dir (one snapshot of
// length-prefixed binary records per site), creating the directory if
// needed. Each snapshot is written to a temporary file and renamed into
// place, so a crash mid-checkpoint leaves the previous snapshot intact
// instead of a truncated one. The snapshots are crash-consistent per
// replica; a cluster restored from them behaves like one whose replicas all
// recovered from their journals.
func (c *Cluster) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: checkpoint: %w", err)
	}
	for site, r := range c.replicas {
		path := filepath.Join(dir, snapshotName(int(site)))
		if err := writeSnapshot(path, r.Store()); err != nil {
			return fmt.Errorf("cluster: checkpoint site %d: %w", site, err)
		}
	}
	return nil
}

// writeSnapshot snapshots the store into path atomically (temp file +
// rename) and durably: the file is synced before the rename, so the new
// name never points at data a power loss could drop, and the directory is
// synced after it, so the rename itself survives.
func writeSnapshot(path string, st *replica.Store) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = st.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RestoreCheckpoint merges per-site snapshots from dir into the replicas.
// Missing snapshot files are skipped (a fresh site joins empty); newer
// in-memory data is never regressed because snapshot entries apply through
// the timestamp-ordered store.
func (c *Cluster) RestoreCheckpoint(dir string) error {
	for site, r := range c.replicas {
		path := filepath.Join(dir, snapshotName(int(site)))
		f, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("cluster: restore site %d: %w", site, err)
		}
		err = r.Store().Restore(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("cluster: restore site %d: %w", site, err)
		}
	}
	return nil
}
