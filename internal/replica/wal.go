package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"arbor/internal/wire"
)

// errLegacyFormat rejects journals written before the binary record format:
// their gob decoder is gone. A journal that old has to be rewritten by a
// release that still read it.
var errLegacyFormat = errors.New("legacy gob format is no longer supported")

// errWALClosed is what a closed journal answers.
var errWALClosed = errors.New("replica: wal closed")

// WAL is a write-ahead journal of committed writes: the replica's stable
// storage. Every effective Apply is journaled, so a replica that crashes
// (Crash discards the store) rebuilds it by replaying the journal; entries
// are timestamp-ordered and idempotent, so replaying twice, or over a store
// that holds newer writes, is harmless. Compaction (Store.Compact) rewrites
// it as one record per key. The journal is a file (OpenWAL) or, for a
// replica with none attached, in memory: a disk that survives the replica's
// crashes but not its process.
type WAL struct {
	mu   sync.Mutex
	f    file
	path string // empty for the in-memory journal
	// buf is the append buffer, reused under mu: appends sit on every
	// committed write, so the encode must not allocate per record.
	buf []byte
}

// file is what a journal writes through: an *os.File or a memFile.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// memFile is the in-memory journal's storage.
type memFile struct{ buf []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

// OpenWAL opens (creating if needed) the journal at path for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("replica: open wal: %w", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Path returns the journal's file path.
func (w *WAL) Path() string { return w.path }

// Append journals one committed write and syncs it to stable storage.
// Each record is a length-prefixed, self-contained binary record (see
// wire.Record): a journal is decodable from any record boundary, so
// sessions appended by successive process incarnations replay seamlessly
// (a single streaming encoder with cross-record state would poison replay
// of everything after the first session — the bug class the chaos harness
// caught in the original gob WAL).
func (w *WAL) Append(key string, value []byte, ts Timestamp) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errWALClosed
	}
	w.buf = wire.AppendFramedRecord(w.buf[:0], wire.Record{Key: key, Value: value, TS: ts})
	_, err := w.f.Write(w.buf)
	if cap(w.buf) > wire.MaxPooledBuf {
		w.buf = nil
	}
	if err != nil {
		return fmt.Errorf("replica: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("replica: wal sync: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replayInto rebuilds s from the journal: the in-memory journal's records,
// or the file's as they are on disk.
func (w *WAL) replayInto(s *Store) error {
	w.mu.Lock()
	m, inMemory := w.f.(*memFile)
	var records []byte
	if inMemory {
		records = m.buf // appends never touch the bytes below len; compact swaps the buffer
	}
	w.mu.Unlock()
	if inMemory {
		return replay(bytes.NewReader(records), s)
	}
	f, err := os.Open(w.path)
	if err != nil {
		return fmt.Errorf("replica: open wal for replay: %w", err)
	}
	defer f.Close()
	return replay(bufio.NewReader(f), s)
}

// replay loads every decodable record into the store without journaling it
// again, stopping silently at a truncated tail (the record being written
// when the process died). A whole record body that does not open with the
// record magic byte is not a torn tail but a journal from before the binary
// format: replay stops there with errLegacyFormat rather than quietly
// dropping the rest of the journal.
func replay(r io.Reader, s *Store) error {
	for applied := 0; ; applied++ {
		// A torn tail — short header, short payload, undecodable record or
		// an implausible length — is expected after a crash: anything
		// already decoded is applied, the rest is unrecoverable noise.
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > wire.MaxRecord {
			return nil
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil
		}
		if buf[0] != wire.RecordMagic {
			return fmt.Errorf("replica: replay wal: record %d starts with %#x, not a binary record: %w", applied, buf[0], errLegacyFormat)
		}
		rec, err := wire.DecodeRecord(buf)
		if err != nil {
			return nil
		}
		s.load(rec.Key, rec.Value, rec.TS)
	}
}

// compact rewrites the journal as one record per key of s, the store it
// journals, unless s is not the journal's image (Store.image): a crashed
// store, or one whose replay has not ended. It holds the journal's mutex
// throughout, so no append lands in the old journal once s is copied. A
// file journal is written to path.tmp, synced and renamed over the journal,
// and then the directory is synced; appends go on through the descriptor
// already open on the renamed file, so nothing has to be reopened after
// the rename. A compaction that fails before the rename leaves the old
// journal as it was. An in-memory journal swaps its buffer.
func (w *WAL) compact(s *Store) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errWALClosed
	}
	recs, ok := s.image()
	if !ok {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		buf = wire.AppendFramedRecord(buf, rec)
	}
	if w.path == "" {
		w.f = &memFile{buf: buf}
		return nil
	}
	f, err := ReplaceFile(w.path, buf)
	if f != nil {
		_ = w.f.Close() // the old journal's file, unlinked by the rename
		w.f = f
	}
	if err != nil {
		return fmt.Errorf("replica: compact wal: %w", err)
	}
	return nil
}

// ReplaceFile writes data to path.tmp, syncs it, renames it over path and
// then syncs the directory. It returns the renamed file, open for
// appending, also when only the directory sync failed; a failure before the
// rename leaves path as it was and returns no file.
func ReplaceFile(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		_ = d.Close()
	}
	if err != nil {
		return f, fmt.Errorf("sync dir: %w", err)
	}
	return f, nil
}

// AttachJournal replays w into the store and then makes it the store's
// journal in place of the one it had: every effective Apply is appended to
// it from then on. Attach before serving traffic.
func (s *Store) AttachJournal(w *WAL) error {
	if err := w.replayInto(s); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = w
	return nil
}
