package replica

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"testing"
	"time"

	"arbor/internal/transport"
)

// journals runs a test against a replica on each kind of journal: the
// in-memory one New gives it, and a file.
func journals(t *testing.T, test func(t *testing.T, h *harness)) {
	t.Run("memory", func(t *testing.T) { test(t, newHarness(t)) })
	t.Run("file", func(t *testing.T) {
		h := newHarness(t)
		w, _ := newWAL(t)
		if err := h.rep.Store().AttachJournal(w); err != nil {
			t.Fatal(err)
		}
		test(t, h)
	})
}

// commitN commits n writes round-robin over keys, each a newer version.
func commitN(t *testing.T, h *harness, n, keys int, from uint64) {
	t.Helper()
	for i := range n {
		v := from + uint64(i)
		key := fmt.Sprintf("k%d", i%keys)
		cr := h.call(t, CommitReq{ReqID: v, TxID: v, Key: key, Value: []byte(fmt.Sprint(v)), TS: Timestamp{Version: v, Site: -1}}).(CommitResp)
		if !cr.OK {
			t.Fatalf("commit %d refused", v)
		}
	}
}

// storedKeys lists the store's keys in order, read through its digest.
func storedKeys(s *Store) []string {
	entries, _ := s.DigestPage("", math.MaxInt)
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// storeImage is the store's contents as key → "value@ts".
func storeImage(s *Store) map[string]string {
	out := make(map[string]string)
	for _, k := range storedKeys(s) {
		v, ts, _ := s.Get(k)
		out[k] = fmt.Sprintf("%s@%v", v, ts)
	}
	return out
}

// TestCompactLeavesOneRecordPerKey: after N writes over K keys a compaction
// leaves exactly K records; crash + recover rebuilds the same store from
// them, and a write appended after the compaction survives the next crash
// (and, on a file, a restart of the process).
func TestCompactLeavesOneRecordPerKey(t *testing.T) {
	journals(t, func(t *testing.T, h *harness) {
		const writes, keys = 40, 5
		commitN(t, h, writes, keys, 1)
		if n := len(decodeRecords(t, journalBytes(t, h.rep))); n != writes {
			t.Fatalf("journal holds %d records before compaction, want %d", n, writes)
		}
		before := storeImage(h.rep.Store())
		if err := h.rep.Store().Compact(); err != nil {
			t.Fatal(err)
		}
		if n := len(decodeRecords(t, journalBytes(t, h.rep))); n != keys {
			t.Errorf("journal holds %d records after compaction, want %d", n, keys)
		}
		h.rep.Crash()
		h.rep.Recover(SyncPlan{})
		if after := storeImage(h.rep.Store()); !maps.Equal(after, before) {
			t.Errorf("crash + recover after compaction rebuilt %v, want %v", after, before)
		}

		commitN(t, h, 1, keys, writes+1) // k0, newest
		want := storeImage(h.rep.Store())
		h.rep.Crash()
		h.rep.Recover(SyncPlan{})
		if got := storeImage(h.rep.Store()); !maps.Equal(got, want) {
			t.Errorf("the append after compaction did not survive a crash: %v, want %v", got, want)
		}
		if w := h.rep.store.journal; w.path != "" {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			fresh, err := replayFile(t, w.path)
			if err != nil {
				t.Fatal(err)
			}
			if got := storeImage(fresh); !maps.Equal(got, want) {
				t.Errorf("a restarted process replayed %v, want %v", got, want)
			}
		}
	})
}

// TestCompactSkipsCrashedReplica: a crashed replica's store is not its
// journal's image, so a compaction leaves its journal byte for byte as it
// was, and recovery still finds every write in it.
func TestCompactSkipsCrashedReplica(t *testing.T) {
	journals(t, func(t *testing.T, h *harness) {
		commitN(t, h, 12, 3, 1)
		want := storeImage(h.rep.Store())
		before := journalBytes(t, h.rep)
		h.rep.Crash()
		if err := h.rep.Store().Compact(); err != nil {
			t.Fatal(err)
		}
		if after := journalBytes(t, h.rep); !bytes.Equal(after, before) {
			t.Fatalf("compaction rewrote a crashed replica's journal: %d bytes, was %d", len(after), len(before))
		}
		h.rep.Recover(SyncPlan{})
		if got := storeImage(h.rep.Store()); !maps.Equal(got, want) {
			t.Errorf("recovered %v, want %v", got, want)
		}
	})
}

// TestCompactFailureKeepsJournal: a compaction that cannot create its
// temporary file (a directory stands at path.tmp) returns the error and
// leaves the journal as it was, still taking appends.
func TestCompactFailureKeepsJournal(t *testing.T) {
	h := newHarness(t)
	w, path := newWAL(t)
	if err := h.rep.Store().AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	commitN(t, h, 6, 2, 1)
	before := journalBytes(t, h.rep)
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := h.rep.Store().Compact(); err == nil {
		t.Fatal("compaction over an unwritable temporary file succeeded")
	}
	if after := journalBytes(t, h.rep); !bytes.Equal(after, before) {
		t.Fatalf("a failed compaction changed the journal: %d bytes, was %d", len(after), len(before))
	}
	commitN(t, h, 1, 2, 7)
	if n := len(fileRecords(t, path)); n != 7 {
		t.Errorf("journal holds %d records after a failed compaction and one more commit, want 7", n)
	}
}

// TestCatchUpStaysUntilJournaled: a catch-up whose pulled writes the
// journal fails to append does not go live; once the journal takes them it
// does, and a crash then keeps every pulled key.
func TestCatchUpStaysUntilJournaled(t *testing.T) {
	p := newSyncPair(t)
	const keys = 6
	for i := range keys {
		p.source.Store().Apply(fmt.Sprintf("k%d", i), []byte("v"), Timestamp{Version: 1, Site: -1})
	}
	w, _ := newWAL(t)
	fw := &failingWrites{file: w.f, fail: true}
	w.f = fw
	if err := p.rec.Store().AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	p.rec.Crash()
	p.rec.Recover(SyncPlan{
		Peers:  [][]transport.Addr{{1}},
		Config: SyncConfig{BatchSize: 4, CallTimeout: 100 * time.Millisecond, RetryBase: 2 * time.Millisecond},
	})
	for deadline := time.Now().Add(5 * time.Second); p.rec.SyncProgress().Retries < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the catch-up with a failing journal never retried")
		}
	}
	if prog := p.rec.SyncProgress(); prog.Health != HealthCatchingUp || prog.Completions != 0 {
		t.Fatalf("with every append failing: %+v, want catching-up with no completion", prog)
	}
	w.mu.Lock()
	fw.fail = false
	w.mu.Unlock()
	p.await(t)
	if h := p.rec.Health(); h != HealthLive {
		t.Fatalf("health = %v once the journal works, want live", h)
	}

	p.rec.Crash()
	p.rec.Recover(SyncPlan{})
	for i := range keys {
		if _, _, found := p.rec.Store().Get(fmt.Sprintf("k%d", i)); !found {
			t.Errorf("k%d pulled by the catch-up is gone after crash + recover", i)
		}
	}
}
