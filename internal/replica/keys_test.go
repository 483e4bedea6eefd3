package replica

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Over TCP a served request's key is a view of its frame, valid only for
// the handler call (DESIGN.md §4l). The tests below keep keys past the call
// in every place the replica does, then let more frames flow through the
// same read buffer, and check that what was kept is still the key sent. A
// -race build overwrites every frame body once its handler returns, so a
// view kept by mistake reads garbage there and races with the write.

// tcpSite is a replica served on loopback TCP and a client endpoint nobody
// serves: its Recv gets every reply decoded owned.
type tcpSite struct {
	rep *Replica
	cli transport.Conn
}

func newTCPSite(t *testing.T) *tcpSite {
	t.Helper()
	n := transport.NewTCPNetwork(transport.WithConnsPerPeer(1))
	ep, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	r := New(1, ep)
	r.Start()
	cli, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Stop()
		n.Close()
	})
	return &tcpSite{rep: r, cli: cli}
}

// call sends req and returns the reply to it.
func (s *tcpSite) call(t *testing.T, req wire.Request) any {
	t.Helper()
	if err := s.cli.Send(1, req); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-s.cli.Recv():
		return m.Payload
	case <-time.After(5 * time.Second):
		t.Fatalf("no reply to %#v", req)
		return nil
	}
}

// churn pushes frames of other keys, of the same lengths as keys, through
// the replica's read buffer and waits for their answers.
func (s *tcpSite) churn(t *testing.T, keys []string) {
	t.Helper()
	for i, k := range keys {
		s.call(t, ReadReq{ReqID: uint64(1000 + i), Key: "#" + k[1:]})
	}
}

// keeperKeys are the keys the tests keep: several bytes long, some of them
// not ASCII, so none is a string Go interns.
var keeperKeys = []string{"user/α-01", "user/β-02", "orders/2024/γ", "k-long-key-0004"}

// TestTCPCommitKeepsOwnKeys: prepared and committed over TCP, each key
// lands in the store under its own name and its lock is released; so does a
// commit with no lock (one whose lock expired), and a renewed prepare's.
func TestTCPCommitKeepsOwnKeys(t *testing.T) {
	s := newTCPSite(t)
	for i, k := range keeperKeys {
		ts := Timestamp{Version: uint64(i + 1), Site: -1}
		tx := uint64(100 + i)
		for range 2 { // the second prepare renews the lock
			if resp := s.call(t, PrepareReq{ReqID: 1, TxID: tx, Key: k, TS: ts}).(PrepareResp); !resp.OK {
				t.Fatalf("prepare %q refused: %s", k, resp.Reason)
			}
		}
		s.churn(t, keeperKeys)
		if resp := s.call(t, CommitReq{ReqID: 2, TxID: tx, Key: k, Value: []byte(k), TS: ts}).(CommitResp); !resp.OK {
			t.Fatalf("commit %q not acknowledged", k)
		}
	}
	repaired := "repair/δ-05"
	s.call(t, CommitReq{ReqID: 3, Key: repaired, Value: []byte(repaired), TS: Timestamp{Version: 1, Site: -2}})
	s.churn(t, keeperKeys)

	want := append(slices.Clone(keeperKeys), repaired)
	got := storedKeys(s.rep.Store())
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("store keys = %q, want %q", got, want)
	}
	for _, k := range want {
		if v, _, found := s.rep.Store().Get(k); !found || string(v) != k {
			t.Errorf("Get(%q) = %q %v", k, v, found)
		}
	}
	if s.rep.Store().locked(time.Now()) {
		t.Error("a lock outlived its commit")
	}
}

// TestTCPSlowedReadAnswersOwnKey: a read the slowsite= fault defers is
// served from a timer, long after its frame was overwritten by the reads
// sent behind it; each answers for its own key.
func TestTCPSlowedReadAnswersOwnKey(t *testing.T) {
	s := newTCPSite(t)
	for _, k := range keeperKeys {
		s.rep.Store().Apply(k, []byte(k), Timestamp{Version: 1, Site: -1})
	}
	s.rep.SlowBy(20 * time.Millisecond)
	for i, k := range keeperKeys {
		if err := s.cli.Send(1, ReadReq{ReqID: uint64(i + 1), Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	for range keeperKeys {
		select {
		case m := <-s.cli.Recv():
			resp := m.Payload.(ReadResp)
			k := keeperKeys[resp.ReqID-1]
			if resp.Key != k || !resp.Found || string(resp.Value) != k {
				t.Errorf("read of %q answered for %q: %q found=%v", k, resp.Key, resp.Value, resp.Found)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a slowed read went unanswered")
		}
	}
}

// TestTCPSyncStoresOwnKeys: a recovering replica pulling over TCP stores
// every key under its own name, after the digest and fetch pages that
// carried them were overwritten by the ones after.
func TestTCPSyncStoresOwnKeys(t *testing.T) {
	n := transport.NewTCPNetwork(transport.WithConnsPerPeer(1))
	ep1, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	source, rec := New(1, ep1), New(2, ep2)
	source.Start()
	rec.Start()
	t.Cleanup(func() {
		source.Stop()
		rec.Stop()
		n.Close()
	})
	var want []string
	for i := range 12 {
		k := fmt.Sprintf("sync/ω-%02d", i)
		want = append(want, k)
		source.Store().Apply(k, []byte(k), Timestamp{Version: 1, Site: -1})
	}
	rec.Crash()
	rec.Recover(SyncPlan{
		Peers:  [][]transport.Addr{{1}},
		Config: SyncConfig{BatchSize: 3, CallTimeout: time.Second},
	})
	p := &syncPair{source: source, rec: rec}
	p.await(t)

	got := storedKeys(rec.Store())
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("pulled keys = %q, want %q", got, want)
	}
	for _, k := range want {
		if v, _, found := rec.Store().Get(k); !found || string(v) != k {
			t.Errorf("Get(%q) = %q %v", k, v, found)
		}
	}
}

// TestStoreKeyClones: a prepare and commit cycle through the store clones
// the key once, in prepare, when the holder was decoded from a frame — the
// commit installs the write under the lock's key — and never when the holder
// was filled by Set, whose strings are the sender's.
func TestStoreKeyClones(t *testing.T) {
	const key = "user/42"
	prep := PrepareReq{TxID: 7, Key: key}
	commit := CommitReq{TxID: 7, Key: key, Value: []byte("v")}
	for _, tc := range []struct {
		name  string
		fill  func(m *wire.Msg, payload any) error
		wants float64
	}{
		{"decoded", func(m *wire.Msg, payload any) error {
			enc, err := wire.Append(nil, payload, wire.Stamp{})
			if err != nil {
				return err
			}
			return m.Decode(enc)
		}, 1},
		{"set", (*wire.Msg).Set, 0},
	} {
		var mp, mc wire.Msg
		if err := tc.fill(&mp, prep); err != nil {
			t.Fatal(err)
		}
		if err := tc.fill(&mc, commit); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		now := time.Now()
		allocs := testing.AllocsPerRun(100, func() {
			mp.PrepareReq.TS.Version++
			mc.CommitReq.TS = mp.PrepareReq.TS
			if ok, reason := s.prepare(&mp.PrepareReq, mp.Borrowed(), now); !ok {
				t.Fatalf("prepare refused: %s", reason)
			}
			if err := s.commit(&mc.CommitReq, mc.Borrowed()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.wants {
			t.Errorf("%s holder: prepare + commit allocate %.1f objects, want %.0f", tc.name, allocs, tc.wants)
		}
		if keys := storedKeys(s); len(keys) != 1 || keys[0] != key || s.locked(now) {
			t.Errorf("%s holder: store keys %q, locked %v", tc.name, keys, s.locked(now))
		}
	}
}
