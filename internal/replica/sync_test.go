package replica

import (
	"fmt"
	"testing"
	"time"

	"arbor/internal/transport"
)

// TestCatchingUpServes: the health lifecycle's serving matrix. A
// catching-up replica keeps participating in 2PC (so in-flight writes can
// still commit on its level) but refuses read and version probes (its
// store may be arbitrarily stale).
func TestCatchingUpServes(t *testing.T) {
	tests := []struct {
		name  string
		req   any
		check func(t *testing.T, resp any)
	}{
		{
			name: "read refused",
			req:  ReadReq{ReqID: 1, Key: "k"},
			check: func(t *testing.T, resp any) {
				rr, ok := resp.(ReadResp)
				if !ok || !rr.Refused {
					t.Fatalf("resp = %#v, want refused ReadResp", resp)
				}
			},
		},
		{
			name: "version refused",
			req:  VersionReq{ReqID: 2, Key: "k", ForWrite: true},
			check: func(t *testing.T, resp any) {
				vr, ok := resp.(VersionResp)
				if !ok || !vr.Refused {
					t.Fatalf("resp = %#v, want refused VersionResp", resp)
				}
			},
		},
		{
			name: "prepare accepted",
			req:  PrepareReq{ReqID: 3, TxID: 7, Key: "k", TS: Timestamp{Version: 1, Site: -1}},
			check: func(t *testing.T, resp any) {
				pr, ok := resp.(PrepareResp)
				if !ok || !pr.OK {
					t.Fatalf("resp = %#v, want OK PrepareResp", resp)
				}
			},
		},
		{
			name: "commit accepted",
			req:  CommitReq{ReqID: 4, TxID: 7, Key: "k", Value: []byte("v"), TS: Timestamp{Version: 1, Site: -1}},
			check: func(t *testing.T, resp any) {
				if _, ok := resp.(CommitResp); !ok {
					t.Fatalf("resp = %#v, want CommitResp", resp)
				}
			},
		},
		{
			name: "ping accepted",
			req:  PingReq{ReqID: 5},
			check: func(t *testing.T, resp any) {
				if _, ok := resp.(PingResp); !ok {
					t.Fatalf("resp = %#v, want PingResp", resp)
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := newHarness(t)
			h.rep.Crash()
			// A plan against an unregistered address pins the replica in
			// the catching-up state for the duration of the test.
			h.rep.Recover(SyncPlan{
				Peers:  [][]transport.Addr{{transport.Addr(9999)}},
				Config: SyncConfig{CallTimeout: 10 * time.Millisecond},
			})
			if h.rep.Health() != HealthCatchingUp {
				t.Fatalf("health = %v, want catching-up", h.rep.Health())
			}
			tt.check(t, h.call(t, tt.req))
		})
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		HealthLive:       "live",
		HealthDown:       "down",
		HealthCatchingUp: "catching-up",
		Health(42):       "unknown",
	} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", h, got, want)
		}
	}
}

// TestCatchingUpRefusalsCounted: refusals show up in the replica's stats.
func TestCatchingUpRefusalsCounted(t *testing.T) {
	h := newHarness(t)
	h.rep.Crash()
	h.rep.Recover(SyncPlan{
		Peers:  [][]transport.Addr{{transport.Addr(9999)}},
		Config: SyncConfig{CallTimeout: 10 * time.Millisecond},
	})
	h.call(t, ReadReq{ReqID: 1, Key: "k"})
	h.call(t, VersionReq{ReqID: 2, Key: "k"})
	if got := h.rep.Stats().Refusals; got != 2 {
		t.Errorf("Refusals = %d, want 2", got)
	}
}

// syncPair wires a source replica (site 1) and a recovering replica
// (site 2) on one network.
type syncPair struct {
	net    *transport.Network
	source *Replica
	rec    *Replica
}

func newSyncPair(t *testing.T) *syncPair {
	t.Helper()
	n := transport.NewNetwork(1, transport.NetConfig{})
	ep1, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	p := &syncPair{net: n, source: New(1, ep1), rec: New(2, ep2)}
	p.source.Start()
	p.rec.Start()
	t.Cleanup(func() {
		p.source.Stop()
		p.rec.Stop()
		n.Close()
	})
	return p
}

func (p *syncPair) await(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		prog := p.rec.SyncProgress()
		if prog.Health != HealthCatchingUp && !prog.Active {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sync did not settle: %+v", prog)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSyncPullsNewerVersionsOnly: a catch-up pass fetches exactly the keys
// whose source timestamp beats the local one and promotes the replica to
// live when done.
func TestSyncPullsNewerVersionsOnly(t *testing.T) {
	p := newSyncPair(t)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%02d", i)
		p.source.Store().Apply(key, []byte("new"), Timestamp{Version: 2, Site: -1})
	}
	// The recovering replica already has half the keys current, and one
	// key the source has never seen.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%02d", i)
		p.rec.Store().Apply(key, []byte("new"), Timestamp{Version: 2, Site: -1})
	}
	p.rec.Store().Apply("local-only", []byte("mine"), Timestamp{Version: 1, Site: -2})

	p.rec.Crash()
	p.rec.Recover(SyncPlan{
		Peers:  [][]transport.Addr{{1}},
		Config: SyncConfig{BatchSize: 3, CallTimeout: 100 * time.Millisecond},
	})
	p.await(t)

	if h := p.rec.Health(); h != HealthLive {
		t.Fatalf("health = %v, want live", h)
	}
	prog := p.rec.SyncProgress()
	if prog.KeysPulled != 5 {
		t.Errorf("KeysPulled = %d, want 5 (only the stale half)", prog.KeysPulled)
	}
	if prog.Completions != 1 {
		t.Errorf("Completions = %d, want 1", prog.Completions)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%02d", i)
		if _, ts, found := p.rec.Store().Get(key); !found || ts.Version != 2 {
			t.Errorf("%s: found=%v ts=%v, want version 2", key, found, ts)
		}
	}
	if _, _, found := p.rec.Store().Get("local-only"); !found {
		t.Error("sync dropped a key the source never had")
	}
}

// TestSyncResumesAfterCrash: a replica that crashes mid-catch-up keeps
// nothing of the pass; the next recovery runs a fresh full pass and
// converges.
func TestSyncResumesAfterCrash(t *testing.T) {
	p := newSyncPair(t)
	const total = 9
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("k%02d", i)
		p.source.Store().Apply(key, []byte("v"), Timestamp{Version: 1, Site: -1})
	}
	plan := SyncPlan{
		Peers:  [][]transport.Addr{{1}},
		Config: SyncConfig{BatchSize: 3, CallTimeout: 10 * time.Millisecond, RetryBase: 5 * time.Millisecond},
	}
	// With its source down the pass can only retry; the crash interrupts it.
	p.source.Crash()
	p.rec.Crash()
	p.rec.Recover(plan)
	for deadline := time.Now().Add(5 * time.Second); p.rec.SyncProgress().Retries == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pass without a source never retried")
		}
	}
	p.rec.Crash()
	if p.rec.SyncProgress().Active {
		t.Fatal("a crash left the pass running")
	}
	p.source.Recover(SyncPlan{})
	p.rec.Recover(plan)
	p.await(t)

	if h := p.rec.Health(); h != HealthLive {
		t.Fatalf("health = %v, want live", h)
	}
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("k%02d", i)
		if _, _, found := p.rec.Store().Get(key); !found {
			t.Errorf("%s missing after the fresh pass", key)
		}
	}
	if got := p.rec.SyncProgress(); got.KeysPulled != total || got.Completions != 1 {
		t.Errorf("KeysPulled = %d, Completions = %d; want %d and 1", got.KeysPulled, got.Completions, total)
	}
}

// TestSyncOnLiveReplicaStaysLive: Recover on a live replica reconciles in
// place without ever leaving the live state.
func TestSyncOnLiveReplicaStaysLive(t *testing.T) {
	p := newSyncPair(t)
	p.source.Store().Apply("k", []byte("v"), Timestamp{Version: 3, Site: -1})
	p.rec.Recover(SyncPlan{Peers: [][]transport.Addr{{1}}, Config: SyncConfig{CallTimeout: 100 * time.Millisecond}})
	p.await(t)
	if n := p.rec.SyncProgress().Completions; n != 1 {
		t.Fatalf("Recover on a live replica completed %d passes, want 1", n)
	}
	if h := p.rec.Health(); h != HealthLive {
		t.Fatalf("health = %v, want live", h)
	}
	if _, ts, found := p.rec.Store().Get("k"); !found || ts.Version != 3 {
		t.Errorf("k not reconciled: found=%v ts=%v", found, ts)
	}
}
