package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"arbor/internal/wire"
)

// errLegacyFormat rejects snapshots and journals written before the binary
// record format (PR 7): their gob decoder is gone. A file that old has to
// be rewritten by a release that still read it.
var errLegacyFormat = errors.New("legacy gob format is no longer supported")

// Snapshot serializes the store's full contents: a two-byte header
// followed by one length-prefixed, self-contained binary record per key
// (the same record format the WAL journals). It is the replica's
// stable-storage checkpoint: a crashed process restarted from a snapshot
// plus re-delivered commits converges, because Apply is idempotent and
// timestamp-ordered. Self-contained records keep the format free of the
// WAL bug class fixed in PR 4 — no serializer state spans entries, so a
// snapshot is decodable from any record boundary.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	entries := make([]wire.Record, 0, len(s.data))
	for k, e := range s.data {
		entries = append(entries, wire.Record{Key: k, Value: e.value, TS: e.ts})
	}
	s.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(wire.SnapshotHeader()); err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	var buf []byte
	for _, rec := range entries {
		buf = wire.AppendFramedRecord(buf[:0], rec)
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("replica: snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	return nil
}

// Restore merges a snapshot into the store. Entries older than what the
// store already holds are ignored (timestamp-ordered Apply), so restoring
// an old snapshot never regresses state. A stream that does not open with
// the snapshot magic byte — a gob-era snapshot, or not a snapshot at all —
// is rejected with errLegacyFormat.
func (s *Store) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fmt.Errorf("replica: restore: %w", err)
	}
	if hdr[0] != wire.SnapshotMagic {
		return fmt.Errorf("replica: restore: first byte %#x is not a binary snapshot: %w", hdr[0], errLegacyFormat)
	}
	if err := wire.CheckSnapshotHeader(hdr); err != nil {
		return fmt.Errorf("replica: restore: %w", err)
	}
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("replica: restore: %w", err)
		}
		n := binary.BigEndian.Uint32(lenb[:])
		if n == 0 || n > wire.MaxRecord {
			return fmt.Errorf("replica: restore: implausible record length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("replica: restore: %w", err)
		}
		rec, err := wire.DecodeRecord(buf)
		if err != nil {
			return fmt.Errorf("replica: restore: %w", err)
		}
		s.Apply(rec.Key, rec.Value, rec.TS)
	}
}
