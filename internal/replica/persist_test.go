package replica

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Apply("a", []byte("v1"), Timestamp{Version: 1, Site: 1})
	s.Apply("b", []byte("v2"), Timestamp{Version: 2, Site: 3})

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Keys()) != 2 {
		t.Fatalf("restored %d keys, want 2", len(fresh.Keys()))
	}
	v, ts, ok := fresh.Get("b")
	if !ok || string(v) != "v2" || ts.Version != 2 || ts.Site != 3 {
		t.Errorf("restored b = %q %v %v", v, ts, ok)
	}
}

func TestRestoreNeverRegresses(t *testing.T) {
	old := NewStore()
	old.Apply("k", []byte("old"), Timestamp{Version: 1, Site: 1})
	var snap bytes.Buffer
	if err := old.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	cur := NewStore()
	cur.Apply("k", []byte("new"), Timestamp{Version: 5, Site: 1})
	if err := cur.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	v, ts, _ := cur.Get("k")
	if string(v) != "new" || ts.Version != 5 {
		t.Errorf("old snapshot regressed store to %q %v", v, ts)
	}
}

func TestRestoreMergesNewerEntries(t *testing.T) {
	newer := NewStore()
	newer.Apply("k", []byte("fresh"), Timestamp{Version: 9, Site: 1})
	var snap bytes.Buffer
	if err := newer.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	cur := NewStore()
	cur.Apply("k", []byte("stale"), Timestamp{Version: 2, Site: 1})
	if err := cur.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	v, _, _ := cur.Get("k")
	if string(v) != "fresh" {
		t.Errorf("restore did not merge newer entry: %q", v)
	}
}

// TestRestoreRejectsLegacySnapshot: a stream that does not open with the
// snapshot magic byte — every gob-era snapshot, and any other garbage — is
// refused with an error naming the unsupported format, the store untouched.
func TestRestoreRejectsLegacySnapshot(t *testing.T) {
	s := NewStore()
	err := s.Restore(strings.NewReader("\x0c\xff\x81\x02\x01\x02 gob-era bytes"))
	if !errors.Is(err, errLegacyFormat) {
		t.Fatalf("err = %v, want errLegacyFormat", err)
	}
	if len(s.Keys()) != 0 {
		t.Errorf("store holds %d keys after a refused restore", len(s.Keys()))
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Keys()) != 0 {
		t.Errorf("empty snapshot produced %d keys", len(fresh.Keys()))
	}
}

func TestSnapshotIsolatedFromLaterWrites(t *testing.T) {
	s := NewStore()
	s.Apply("k", []byte("v1"), Timestamp{Version: 1, Site: 1})
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Apply("k", []byte("v2"), Timestamp{Version: 2, Site: 1})

	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	v, ts, _ := fresh.Get("k")
	if string(v) != "v1" || ts.Version != 1 {
		t.Errorf("snapshot captured later write: %q %v", v, ts)
	}
}
