package replica

import (
	"testing"
	"time"

	"arbor/internal/transport"
)

// harness wires one replica and one bare client endpoint on a network.
type harness struct {
	net    *transport.Network
	rep    *Replica
	client *transport.Endpoint
}

func newHarness(t *testing.T, opts ...Option) *harness {
	t.Helper()
	n := transport.NewNetwork(1, transport.NetConfig{})
	repEP, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	cliEP, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	r := New(1, repEP, opts...)
	r.Start()
	t.Cleanup(func() {
		r.Stop()
		n.Close()
	})
	return &harness{net: n, rep: r, client: cliEP}
}

// call sends a request to the replica and waits for one reply.
func (h *harness) call(t *testing.T, payload any) any {
	t.Helper()
	if err := h.client.Send(1, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case msg := <-h.client.Recv():
		return msg.Payload
	case <-time.After(2 * time.Second):
		t.Fatal("no reply from replica")
		return nil
	}
}

// expectSilence sends a request and asserts no reply arrives: a crashed
// replica answers nothing, and nobody answers a one-way abort.
func (h *harness) expectSilence(t *testing.T, payload any) {
	t.Helper()
	if err := h.client.Send(1, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case msg := <-h.client.Recv():
		t.Fatalf("unexpected reply %+v", msg.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTimestampOrdering(t *testing.T) {
	tests := []struct {
		name string
		a, b Timestamp
		want bool // a.After(b)
	}{
		{name: "higher version", a: Timestamp{Version: 2, Site: 5}, b: Timestamp{Version: 1, Site: 1}, want: true},
		{name: "lower version", a: Timestamp{Version: 1, Site: 1}, b: Timestamp{Version: 2, Site: 5}, want: false},
		{name: "tie lower site wins", a: Timestamp{Version: 3, Site: 1}, b: Timestamp{Version: 3, Site: 2}, want: true},
		{name: "tie higher site loses", a: Timestamp{Version: 3, Site: 4}, b: Timestamp{Version: 3, Site: 2}, want: false},
		{name: "equal", a: Timestamp{Version: 3, Site: 2}, b: Timestamp{Version: 3, Site: 2}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.After(tt.b); got != tt.want {
				t.Errorf("%v.After(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
	if got := (Timestamp{Version: 4, Site: 2}).String(); got != "v4@s2" {
		t.Errorf("String = %q", got)
	}
}

func TestStoreApplyOrdering(t *testing.T) {
	s := NewStore()
	if _, _, found := s.Get("k"); found {
		t.Error("empty store found a key")
	}
	apply := func(value string, ts Timestamp) bool {
		t.Helper()
		applied, err := s.Apply("k", []byte(value), ts)
		if err != nil {
			t.Fatal(err)
		}
		return applied
	}
	if !apply("v1", Timestamp{Version: 1, Site: 2}) {
		t.Error("first apply rejected")
	}
	// Same version from a higher site loses the tie-break.
	if apply("v1b", Timestamp{Version: 1, Site: 3}) {
		t.Error("tie-losing apply accepted")
	}
	// Same version from a lower site wins.
	if !apply("v1c", Timestamp{Version: 1, Site: 1}) {
		t.Error("tie-winning apply rejected")
	}
	// Older version never applies.
	if apply("old", Timestamp{Version: 0, Site: 0}) {
		t.Error("stale apply accepted")
	}
	v, ts, found := s.Get("k")
	if !found || string(v) != "v1c" || ts.Version != 1 || ts.Site != 1 {
		t.Errorf("Get = %q %v %v", v, ts, found)
	}
	if keys := storedKeys(s); len(keys) != 1 {
		t.Errorf("Keys = %v", keys)
	}
}

// TestStoredValueImmutable pins the ownership rule: Apply keeps the slice it
// is given, Get hands that slice out, and a newer Apply replaces the slice
// without touching the bytes an earlier Get returned.
func TestStoredValueImmutable(t *testing.T) {
	s := NewStore()
	v1 := []byte("first value")
	s.Apply("k", v1, Timestamp{Version: 1, Site: 1})
	got, _, _ := s.Get("k")
	if &got[0] != &v1[0] || len(got) != len(v1) {
		t.Fatal("Apply did not store the slice it was given, or Get copied it")
	}
	s.Apply("k", []byte("second, longer value"), Timestamp{Version: 2, Site: 1})
	if string(got) != "first value" {
		t.Errorf("a newer Apply changed a slice an earlier Get returned: %q", got)
	}
	if now, _, _ := s.Get("k"); string(now) != "second, longer value" {
		t.Errorf("Get after the newer Apply = %q", now)
	}
	// A rejected Apply keeps nothing.
	s.Apply("k", []byte("stale"), Timestamp{Version: 1, Site: 9})
	if now, _, _ := s.Get("k"); string(now) != "second, longer value" {
		t.Errorf("Get after a stale Apply = %q", now)
	}
}

func TestReadAndVersionRequests(t *testing.T) {
	h := newHarness(t)
	// Read of a missing key.
	resp := h.call(t, ReadReq{ReqID: 1, Key: "x"})
	rr, ok := resp.(ReadResp)
	if !ok || rr.Found || rr.ReqID != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	// Install a value directly, then read it back.
	h.rep.Store().Apply("x", []byte("hello"), Timestamp{Version: 3, Site: 2})
	resp = h.call(t, ReadReq{ReqID: 2, Key: "x"})
	rr = resp.(ReadResp)
	if !rr.Found || string(rr.Value) != "hello" || rr.TS.Version != 3 {
		t.Errorf("read = %+v", rr)
	}
	resp = h.call(t, VersionReq{ReqID: 3, Key: "x"})
	vr := resp.(VersionResp)
	if !vr.Found || vr.TS.Version != 3 || vr.TS.Site != 2 {
		t.Errorf("version = %+v", vr)
	}
}

func TestTwoPhaseCommitHappyPath(t *testing.T) {
	h := newHarness(t)
	ts := Timestamp{Version: 1, Site: -1}
	resp := h.call(t, PrepareReq{ReqID: 1, TxID: 10, Key: "k", TS: ts})
	pr := resp.(PrepareResp)
	if !pr.OK {
		t.Fatalf("prepare refused: %s", pr.Reason)
	}
	resp = h.call(t, CommitReq{ReqID: 2, TxID: 10, Key: "k", Value: []byte("v"), TS: ts})
	cr := resp.(CommitResp)
	if !cr.OK {
		t.Fatal("commit refused")
	}
	v, got, found := h.rep.Store().Get("k")
	if !found || string(v) != "v" || got != ts {
		t.Errorf("store = %q %v %v", v, got, found)
	}
}

func TestPrepareConflictAndAbort(t *testing.T) {
	h := newHarness(t)
	ts := Timestamp{Version: 1, Site: -1}
	if pr := h.call(t, PrepareReq{ReqID: 1, TxID: 10, Key: "k", TS: ts}).(PrepareResp); !pr.OK {
		t.Fatal("first prepare refused")
	}
	// A different transaction cannot take the lock.
	pr := h.call(t, PrepareReq{ReqID: 2, TxID: 11, Key: "k", TS: Timestamp{Version: 1, Site: -2}}).(PrepareResp)
	if pr.OK || pr.Reason != "locked" {
		t.Errorf("conflicting prepare = %+v", pr)
	}
	// The same transaction may re-prepare (idempotent).
	if pr := h.call(t, PrepareReq{ReqID: 3, TxID: 10, Key: "k", TS: ts}).(PrepareResp); !pr.OK {
		t.Error("re-prepare by owner refused")
	}
	// An abort is one-way: it frees the lock and nothing comes back.
	h.expectSilence(t, AbortReq{TxID: 10, Key: "k"})
	if pr := h.call(t, PrepareReq{ReqID: 5, TxID: 11, Key: "k", TS: Timestamp{Version: 1, Site: -2}}).(PrepareResp); !pr.OK {
		t.Errorf("prepare after abort refused: %s", pr.Reason)
	}
}

func TestPrepareRejectsStaleTimestamp(t *testing.T) {
	h := newHarness(t)
	h.rep.Store().Apply("k", []byte("v5"), Timestamp{Version: 5, Site: 1})
	pr := h.call(t, PrepareReq{ReqID: 1, TxID: 10, Key: "k", TS: Timestamp{Version: 5, Site: 2}}).(PrepareResp)
	if pr.OK || pr.Reason != "stale" {
		t.Errorf("stale prepare = %+v", pr)
	}
	// A strictly newer timestamp is fine.
	if pr := h.call(t, PrepareReq{ReqID: 2, TxID: 10, Key: "k", TS: Timestamp{Version: 6, Site: 2}}).(PrepareResp); !pr.OK {
		t.Errorf("fresh prepare refused: %s", pr.Reason)
	}
}

// TestLockExpiry decides prepares at explicit instants: transaction 10
// takes a fresh key's lock at t0, then a second prepare comes at t0 + at.
// Another transaction is refused until the lock's TTL has passed and
// admitted from then on; the owner may re-prepare at any time; a crash
// drops the lock however young it is.
func TestLockExpiry(t *testing.T) {
	const ttl = 30 * time.Millisecond
	h := newHarness(t, WithLockTTL(ttl))
	s := h.rep.Store()
	if s.lockTTL != ttl {
		t.Fatalf("store lock TTL = %v, want WithLockTTL's %v", s.lockTTL, ttl)
	}
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name  string
		txID  uint64
		at    time.Duration
		crash bool // crash and recover the replica before the second prepare
		ok    bool
	}{
		{"other tx, live just before expiry", 11, ttl - time.Nanosecond, false, false},
		{"other tx, at expiry", 11, ttl, false, true},
		{"other tx, after expiry", 11, 2 * ttl, false, true},
		{"owner re-prepares while live", 10, ttl / 2, false, true},
		{"other tx, lock dropped by a crash", 11, 0, true, true},
	} {
		if ok, reason := s.prepare(&PrepareReq{TxID: 10, Key: tc.name, TS: Timestamp{Version: 1, Site: -10}}, false, t0); !ok {
			t.Fatalf("%s: first prepare refused: %s", tc.name, reason)
		}
		if tc.crash {
			h.rep.Crash()
			h.rep.Recover(SyncPlan{})
		}
		req := PrepareReq{TxID: tc.txID, Key: tc.name, TS: Timestamp{Version: 1, Site: -int(tc.txID)}}
		ok, reason := s.prepare(&req, false, t0.Add(tc.at))
		if ok != tc.ok || (!ok && reason != "locked") {
			t.Errorf("%s: prepare = %v %q, want %v", tc.name, ok, reason, tc.ok)
		}
	}
}

func TestCrashSilenceAndRecovery(t *testing.T) {
	h := newHarness(t)
	h.rep.Store().Apply("k", []byte("v"), Timestamp{Version: 1, Site: 1})
	h.rep.Crash()
	if !h.rep.Crashed() {
		t.Error("Crashed() = false after Crash")
	}
	h.expectSilence(t, ReadReq{ReqID: 1, Key: "k"})
	h.rep.Recover(SyncPlan{})
	if h.rep.Crashed() {
		t.Error("Crashed() = true after Recover")
	}
	// Stable storage survived the crash.
	rr := h.call(t, ReadReq{ReqID: 2, Key: "k"}).(ReadResp)
	if !rr.Found || string(rr.Value) != "v" {
		t.Errorf("post-recovery read = %+v", rr)
	}
}

func TestCrashDropsLocks(t *testing.T) {
	h := newHarness(t)
	ts := Timestamp{Version: 1, Site: -1}
	if pr := h.call(t, PrepareReq{ReqID: 1, TxID: 10, Key: "k", TS: ts}).(PrepareResp); !pr.OK {
		t.Fatal("prepare refused")
	}
	h.rep.Crash()
	h.rep.Recover(SyncPlan{})
	// Volatile lock state is gone: a new transaction can prepare.
	if pr := h.call(t, PrepareReq{ReqID: 2, TxID: 11, Key: "k", TS: Timestamp{Version: 1, Site: -2}}).(PrepareResp); !pr.OK {
		t.Errorf("prepare after crash refused: %s", pr.Reason)
	}
}

func TestPingAndStats(t *testing.T) {
	h := newHarness(t)
	pong := h.call(t, PingReq{ReqID: 9}).(PingResp)
	if pong.Site != 1 || pong.ReqID != 9 {
		t.Errorf("pong = %+v", pong)
	}
	h.call(t, ReadReq{ReqID: 1, Key: "k"})
	h.call(t, VersionReq{ReqID: 2, Key: "k"})
	st := h.rep.Stats()
	if st.Pings != 1 || st.Reads != 1 || st.Versions != 1 || st.Messages != 3 {
		t.Errorf("stats = %+v", st)
	}
	if h.rep.Site() != 1 {
		t.Errorf("Site = %d", h.rep.Site())
	}
}

func TestCommitIsIdempotentAndOrdered(t *testing.T) {
	h := newHarness(t)
	tsNew := Timestamp{Version: 2, Site: -1}
	tsOld := Timestamp{Version: 1, Site: -1}
	h.call(t, CommitReq{ReqID: 1, TxID: 1, Key: "k", Value: []byte("new"), TS: tsNew})
	// Re-delivery of an older commit must not regress the value.
	h.call(t, CommitReq{ReqID: 2, TxID: 2, Key: "k", Value: []byte("old"), TS: tsOld})
	v, ts, _ := h.rep.Store().Get("k")
	if string(v) != "new" || ts != tsNew {
		t.Errorf("store regressed to %q %v", v, ts)
	}
	// Duplicate commit of the same write is harmless.
	h.call(t, CommitReq{ReqID: 3, TxID: 1, Key: "k", Value: []byte("new"), TS: tsNew})
	v, _, _ = h.rep.Store().Get("k")
	if string(v) != "new" {
		t.Errorf("duplicate commit changed value to %q", v)
	}
}

// TestReadBelowFloorOmitsValue: a read carrying a floor newer than what is
// stored is answered with Found and TS alone and counted apart; a floor at
// or below the stored timestamp, or none, gets the value.
func TestReadBelowFloorOmitsValue(t *testing.T) {
	h := newHarness(t)
	stored := Timestamp{Version: 5, Site: -1}
	h.rep.Store().Apply("k", []byte("v"), stored)
	h.rep.Store().Apply("empty", nil, stored)
	for _, tc := range []struct {
		name, key string
		floor     Timestamp
		value     string
		found     bool
		tsOnly    bool
	}{
		{"no floor", "k", Timestamp{}, "v", true, false},
		{"floor older", "k", Timestamp{Version: 4, Site: -9}, "v", true, false},
		{"floor equal", "k", stored, "v", true, false},
		{"floor newer", "k", Timestamp{Version: 6, Site: -1}, "", true, true},
		{"floor same version, winning site", "k", Timestamp{Version: 5, Site: -2}, "", true, true},
		{"empty value at the floor", "empty", stored, "", true, false},
		{"nothing stored", "absent", Timestamp{Version: 6, Site: -1}, "", false, false},
	} {
		before := h.rep.Stats()
		resp := h.call(t, ReadReq{ReqID: 1, Key: tc.key, Floor: tc.floor}).(ReadResp)
		after := h.rep.Stats()
		if string(resp.Value) != tc.value || resp.Found != tc.found || (tc.found && resp.TS != stored) {
			t.Errorf("%s: reply = %+v, want value %q found %v at %v", tc.name, resp, tc.value, tc.found, stored)
		}
		if after.Reads-before.Reads != 1 || (after.ReadsTSOnly-before.ReadsTSOnly == 1) != tc.tsOnly {
			t.Errorf("%s: Reads %d→%d, ReadsTSOnly %d→%d", tc.name, before.Reads, after.Reads, before.ReadsTSOnly, after.ReadsTSOnly)
		}
	}
}
