package replica

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"
)

// journalBytes is the replica's journal as it stands: the in-memory
// buffer, or the file.
func journalBytes(t *testing.T, r *Replica) []byte {
	t.Helper()
	w := r.store.journal
	if w.path == "" {
		w.mu.Lock()
		defer w.mu.Unlock()
		return bytes.Clone(w.f.(*memFile).buf)
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashLosesMemoryRecoverReplaysJournal: a crash leaves the replica
// nothing but its journal, and recovery rebuilds the store from it without
// appending to it.
func TestCrashLosesMemoryRecoverReplaysJournal(t *testing.T) {
	h := newHarness(t)
	for i, key := range []string{"a", "b", "c", "a"} {
		ts := Timestamp{Version: uint64(i + 1), Site: -1}
		if cr := h.call(t, CommitReq{ReqID: uint64(i), TxID: uint64(i), Key: key, Value: []byte(key), TS: ts}).(CommitResp); !cr.OK {
			t.Fatalf("commit %d refused", i)
		}
	}
	before := storedKeys(h.rep.Store())
	slices.Sort(before)
	n := len(journalBytes(t, h.rep))
	if n == 0 {
		t.Fatal("the in-memory journal recorded nothing")
	}

	h.rep.Crash()
	if keys := storedKeys(h.rep.Store()); len(keys) != 0 {
		t.Fatalf("keys after Crash = %q, want none", keys)
	}
	h.rep.Recover(SyncPlan{})
	after := storedKeys(h.rep.Store())
	slices.Sort(after)
	if !slices.Equal(after, before) {
		t.Errorf("keys after Recover = %q, want %q", after, before)
	}
	if _, ts, _ := h.rep.Store().Get("a"); ts.Version != 4 {
		t.Errorf("a replayed at %v, want the newest version 4", ts)
	}
	if got := len(journalBytes(t, h.rep)); got != n {
		t.Errorf("journal length %d after crash + recover, want %d", got, n)
	}
}

// failingWrites is a journal file whose writes fail while fail is set.
type failingWrites struct {
	file
	fail bool
}

func (f *failingWrites) Write(p []byte) (int, error) {
	if f.fail {
		return 0, errors.New("disk full")
	}
	return f.file.Write(p)
}

// TestFailedAppendLostByCrash: a commit whose journal append failed is
// answered OK: false; it is applied in memory, but a crash loses it, so the
// recovered replica serves the value it had journaled before.
func TestFailedAppendLostByCrash(t *testing.T) {
	h := newHarness(t)
	w, _ := newWAL(t)
	fw := &failingWrites{file: w.f}
	w.f = fw
	h.rep.Store().AttachJournal(w)
	commit := func(version uint64, value string) bool {
		ts := Timestamp{Version: version, Site: -1}
		return h.call(t, CommitReq{ReqID: version, TxID: version, Key: "k", Value: []byte(value), TS: ts}).(CommitResp).OK
	}
	if !commit(1, "kept") {
		t.Fatal("commit 1 refused with a working journal")
	}
	fw.fail = true
	if commit(2, "unjournaled") {
		t.Fatal("commit 2 answered OK although its append failed")
	}
	fw.fail = false
	if rr := h.call(t, ReadReq{ReqID: 3, Key: "k"}).(ReadResp); string(rr.Value) != "unjournaled" {
		t.Fatalf("before the crash k = %q, want the applied unjournaled write", rr.Value)
	}

	h.rep.Crash()
	h.rep.Recover(SyncPlan{})
	rr := h.call(t, ReadReq{ReqID: 4, Key: "k"}).(ReadResp)
	if string(rr.Value) != "kept" || rr.TS.Version != 1 {
		t.Errorf("after crash + recover k = %q at %v, want %q at version 1", rr.Value, rr.TS, "kept")
	}
}
