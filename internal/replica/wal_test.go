package replica

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arbor/internal/obs"
	"arbor/internal/wire"
)

func newWAL(t *testing.T) (*WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "replica.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, path
}

// replayFile rebuilds a fresh store from the journal file at path, as a
// restarted process does: OpenWAL, then AttachJournal.
func replayFile(t *testing.T, path string) (*Store, error) {
	t.Helper()
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	s := NewStore()
	return s, s.AttachJournal(w)
}

// decodeRecords returns the whole records in a journal's bytes, stopping at
// a torn tail.
func decodeRecords(t *testing.T, data []byte) []wire.Record {
	t.Helper()
	var recs []wire.Record
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if len(data) < 4+n {
			break
		}
		rec, err := wire.DecodeRecord(data[4 : 4+n])
		if err != nil {
			break
		}
		recs = append(recs, rec)
		data = data[4+n:]
	}
	return recs
}

// fileRecords returns the whole records in the journal file at path.
func fileRecords(t *testing.T, path string) []wire.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return decodeRecords(t, data)
}

func TestWALReplayRebuildsStore(t *testing.T) {
	w, path := newWAL(t)
	s := NewStore()
	s.AttachJournal(w)
	s.Apply("a", []byte("1"), Timestamp{Version: 1, Site: 1})
	s.Apply("b", []byte("2"), Timestamp{Version: 1, Site: 2})
	s.Apply("a", []byte("3"), Timestamp{Version: 2, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart: a fresh store replays the log.
	fresh, err := replayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fileRecords(t, path)); n != 3 {
		t.Errorf("journal holds %d records, want 3", n)
	}
	v, ts, _ := fresh.Get("a")
	if string(v) != "3" || ts.Version != 2 {
		t.Errorf("a = %q %v", v, ts)
	}
	v, _, _ = fresh.Get("b")
	if string(v) != "2" {
		t.Errorf("b = %q", v)
	}
}

func TestWALIgnoresIneffectiveApplies(t *testing.T) {
	w, path := newWAL(t)
	s := NewStore()
	s.AttachJournal(w)
	s.Apply("k", []byte("new"), Timestamp{Version: 5, Site: 1})
	// A stale apply must not reach the journal.
	s.Apply("k", []byte("old"), Timestamp{Version: 1, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(fileRecords(t, path)); n != 1 {
		t.Errorf("journal has %d records, want 1", n)
	}
}

func TestWALReplayToleratesTornTail(t *testing.T) {
	w, path := newWAL(t)
	s := NewStore()
	s.AttachJournal(w)
	s.Apply("k", []byte("v"), Timestamp{Version: 1, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append by appending garbage bytes.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	fresh, err := replayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fileRecords(t, path)); n != 1 {
		t.Errorf("journal holds %d whole records, want the 1 intact one", n)
	}
	if v, _, ok := fresh.Get("k"); !ok || string(v) != "v" {
		t.Errorf("k = %q, %v after replaying past a torn tail", v, ok)
	}
}

// TestWALReplayOverSnapshotIsIdempotent: a compacted journal is a snapshot
// of the store followed by the appends made since; replaying it, twice over
// the same store, ends at the newest version of every key.
func TestWALReplayOverSnapshotIsIdempotent(t *testing.T) {
	w, path := newWAL(t)
	s := NewStore()
	s.AttachJournal(w)
	s.Apply("k", []byte("v1"), Timestamp{Version: 1, Site: 1})
	s.Apply("k", []byte("v2"), Timestamp{Version: 2, Site: 1})
	s.Apply("j", []byte("j1"), Timestamp{Version: 1, Site: 1})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Apply("j", []byte("j2"), Timestamp{Version: 2, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := replayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AttachJournal(fresh.journal); err != nil { // and once more
		t.Fatal(err)
	}
	for key, want := range map[string]string{"k": "v2", "j": "j2"} {
		if v, ts, _ := fresh.Get(key); string(v) != want || ts.Version != 2 {
			t.Errorf("%s = %q %v, want %q at version 2", key, v, ts, want)
		}
	}
}

// TestRestoreNeverRegresses: replaying a journal into a store that holds a
// newer version of a key keeps the newer one.
func TestRestoreNeverRegresses(t *testing.T) {
	w, path := newWAL(t)
	old := NewStore()
	old.AttachJournal(w)
	old.Apply("k", []byte("old"), Timestamp{Version: 1, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cur := NewStore()
	cur.Apply("k", []byte("new"), Timestamp{Version: 5, Site: 1})
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := cur.AttachJournal(w2); err != nil {
		t.Fatal(err)
	}
	if v, ts, _ := cur.Get("k"); string(v) != "new" || ts.Version != 5 {
		t.Errorf("an older journal regressed the store to %q %v", v, ts)
	}
}

// TestRestoreMergesNewerEntries: replaying a journal into a store that holds
// an older version of a key installs the journal's.
func TestRestoreMergesNewerEntries(t *testing.T) {
	w, path := newWAL(t)
	newer := NewStore()
	newer.AttachJournal(w)
	newer.Apply("k", []byte("fresh"), Timestamp{Version: 9, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cur := NewStore()
	cur.Apply("k", []byte("stale"), Timestamp{Version: 2, Site: 1})
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := cur.AttachJournal(w2); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := cur.Get("k"); string(v) != "fresh" {
		t.Errorf("replay did not install the newer entry: %q", v)
	}
}

func TestWALAppendAfterClose(t *testing.T) {
	w, _ := newWAL(t)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Append("k", []byte("v"), Timestamp{Version: 1}); err == nil {
		t.Error("append after close succeeded")
	}
}

// TestJournalErrorsCounted: a commit whose journal append fails is still
// applied but answered OK: false, and the error is counted — in Stats and in
// the site's metric — once per failed append, never for a rejected apply.
func TestJournalErrorsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, WithObserver(reg))
	w, _ := newWAL(t)
	h.rep.Store().AttachJournal(w)
	commit := func(version uint64, wantOK bool) {
		t.Helper()
		resp := h.call(t, CommitReq{ReqID: version, TxID: version, Key: "k", Value: []byte("v"), TS: Timestamp{Version: version, Site: 1}})
		if cr, ok := resp.(CommitResp); !ok || cr.OK != wantOK {
			t.Fatalf("commit %d answered %+v, want OK %v", version, resp, wantOK)
		}
	}
	commit(1, true)
	if got := h.rep.Stats().JournalErrors; got != 0 {
		t.Fatalf("JournalErrors = %d with the journal open", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	commit(2, false)
	commit(3, false)
	commit(2, true) // stale: not applied, so not journaled either
	if got := h.rep.Stats().JournalErrors; got != 2 {
		t.Errorf("Stats.JournalErrors = %d, want 2", got)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := `arbor_replica_journal_errors_total{site="1"} 2`; !strings.Contains(out.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, out.String())
	}
	if v, ts, _ := h.rep.Store().Get("k"); string(v) != "v" || ts.Version != 3 {
		t.Errorf("store holds %q at %v, want the unjournaled commit 3", v, ts)
	}
}

func TestWALErrors(t *testing.T) {
	if _, err := OpenWAL(filepath.Join(t.TempDir(), "missing", "dir.wal")); err == nil {
		t.Error("open in missing directory succeeded")
	}
	w, path := newWAL(t)
	if w.Path() != path {
		t.Errorf("Path = %q", w.Path())
	}
	s := NewStore()
	if err := s.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); !errors.Is(err, errWALClosed) {
		t.Errorf("compacting a closed journal: err = %v, want errWALClosed", err)
	}
}

// TestWALAppendAcrossSessions pins the multi-incarnation case the chaos
// harness (internal/sim) first caught: a journal reopened by a second
// process incarnation must replay records from every session, not just the
// first. (A streaming gob encoder re-emits type descriptors on reopen,
// which a single-decoder replay mistakes for a torn tail.)
func TestWALAppendAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.wal")
	for session := 0; session < 3; session++ {
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		if err := s.AttachJournal(w); err != nil {
			t.Fatal(err)
		}
		key := []string{"a", "b", "c"}[session]
		s.Apply(key, []byte(key), Timestamp{Version: uint64(session + 1), Site: 1})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := replayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fileRecords(t, path)); n != 3 {
		t.Fatalf("journal holds %d records across 3 sessions, want 3", n)
	}
	for _, key := range []string{"a", "b", "c"} {
		if v, _, ok := fresh.Get(key); !ok || string(v) != key {
			t.Errorf("key %q = %q, %v after multi-session replay", key, v, ok)
		}
	}
}

// TestReplayRejectsLegacyWAL: a whole, plausibly-sized record body that
// does not open with the record magic byte — what a journal from before the
// binary format holds — ends replay with an error naming the format, after
// the binary records before it were applied. (A short read stays a torn
// tail: TestWALReplayToleratesTornTail.)
func TestReplayRejectsLegacyWAL(t *testing.T) {
	w, path := newWAL(t)
	s := NewStore()
	s.AttachJournal(w)
	s.Apply("k", []byte("v"), Timestamp{Version: 1, Site: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A framed body whose first byte is in gob's range (a segment length).
	if _, err := f.Write([]byte{0, 0, 0, 3, 0x2b, 0xff, 0x81}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	fresh, err := replayFile(t, path)
	if !errors.Is(err, errLegacyFormat) {
		t.Fatalf("err = %v, want errLegacyFormat", err)
	}
	if v, _, ok := fresh.Get("k"); !ok || string(v) != "v" {
		t.Errorf("the record before the legacy one was not replayed: %q, %v", v, ok)
	}
}
