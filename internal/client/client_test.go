package client

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"arbor/internal/core"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/tree"
	"arbor/internal/wire"
)

// memHarness wires replicas and one client over the in-memory transport.
type memHarness struct {
	net      *transport.Network
	replicas []*replica.Replica
	cli      *Client
	proto    *core.Protocol
}

func newMemHarness(t *testing.T, spec string, opts ...Option) *memHarness {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork(1, transport.NetConfig{})
	h := &memHarness{net: n, proto: proto}
	for _, site := range tr.Sites() {
		ep, err := n.Register(transport.Addr(site))
		if err != nil {
			t.Fatal(err)
		}
		r := replica.New(int(site), ep)
		r.Start()
		h.replicas = append(h.replicas, r)
	}
	cliEP, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithTimeout(80 * time.Millisecond), WithSeed(1)}, opts...)
	h.cli = New(-1, cliEP, proto, opts...)
	t.Cleanup(func() {
		h.cli.Close()
		for _, r := range h.replicas {
			r.Stop()
		}
		n.Close()
	})
	return h
}

func TestClientWriteReadRoundTrip(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	wr, err := h.cli.Write(ctx, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.TS.Site != -1 {
		t.Errorf("timestamp site = %d, want client id -1", wr.TS.Site)
	}
	rd, err := h.cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "v" || !rd.Found {
		t.Errorf("read = %+v", rd)
	}
	m := h.cli.Metrics()
	if m.Writes != 1 || m.Reads != 1 || m.ReadFailures != 0 || m.WriteFailures != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.ReadContacts == 0 || m.WriteContacts == 0 {
		t.Errorf("contact metrics empty: %+v", m)
	}
	if h.cli.ID() != -1 {
		t.Errorf("ID = %d", h.cli.ID())
	}
}

func TestClientCloseFailsOperations(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	h.cli.Close()
	h.cli.Close() // idempotent
	if _, err := h.cli.Read(context.Background(), "k"); err == nil {
		t.Error("read after close succeeded")
	}
	if _, err := h.cli.Write(context.Background(), "k", nil); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithTimeout(5*time.Second))
	for _, r := range h.replicas {
		r.Crash() // force waits so cancellation is what unblocks us
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.cli.Read(ctx, "k")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled read succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not honor cancellation")
	}
}

func TestClientSetProtocol(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	tr2, err := tree.ParseSpec("1-5")
	if err != nil {
		t.Fatal(err)
	}
	proto2, err := core.New(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if h.cli.Protocol() != h.proto {
		t.Error("initial protocol mismatch")
	}
	h.cli.SetProtocol(proto2)
	if h.cli.Protocol() != proto2 {
		t.Error("SetProtocol did not switch")
	}
}

// silentCommitter acks prepares but never answers commits, driving the
// client's in-doubt path, until stop is closed.
type silentCommitter struct {
	ep   transport.Conn
	stop chan struct{}
}

func (s *silentCommitter) run() {
	for {
		var msg transport.Message
		select {
		case msg = <-s.ep.Recv():
		case <-s.stop:
			return
		}
		switch req := msg.Payload.(type) {
		case replica.VersionReq:
			_ = s.ep.Send(msg.From, replica.VersionResp{ReqID: req.ReqID, Key: req.Key})
		case replica.PrepareReq:
			_ = s.ep.Send(msg.From, replica.PrepareResp{ReqID: req.ReqID, TxID: req.TxID, OK: true})
		case replica.CommitReq:
			// Silence: the commit ack never arrives.
		}
	}
}

func TestClientWriteInDoubt(t *testing.T) {
	tr, err := tree.PhysicalLevelSizes(1) // single level, single replica
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork(1, transport.NetConfig{})
	defer n.Close()
	repEP, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go (&silentCommitter{ep: repEP, stop: stop}).run()
	cliEP, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(-1, cliEP, proto, WithTimeout(40*time.Millisecond))
	defer cli.Close()

	_, err = cli.Write(context.Background(), "k", []byte("v"))
	if !errors.Is(err, ErrInDoubt) {
		t.Errorf("err = %v, want ErrInDoubt", err)
	}
	// The decision was commit, so the client counts it as a write.
	if m := cli.Metrics(); m.Writes != 1 || m.WriteFailures != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestClientWriteInDoubtWhenJournalRefuses: a replica whose journal was
// closed answers every commit OK: false, and the client reports the write in
// doubt rather than acknowledged.
func TestClientWriteInDoubtWhenJournalRefuses(t *testing.T) {
	tr, err := tree.PhysicalLevelSizes(1)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewTCPNetwork()
	defer n.Close()
	repEP, err := n.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.New(1, repEP)
	wal, err := replica.OpenWAL(filepath.Join(t.TempDir(), "site-1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	rep.Store().AttachJournal(wal)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Stop()
	cliEP, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(-1, cliEP, proto, WithTimeout(2*time.Second))
	defer cli.Close()

	if _, err := cli.Write(context.Background(), "k", []byte("v")); !errors.Is(err, ErrInDoubt) {
		t.Errorf("write through a replica whose journal refuses it: err = %v, want ErrInDoubt", err)
	}
	if st := rep.Stats(); st.Commits != 1 || st.JournalErrors != 1 {
		t.Errorf("replica served %d commits with %d journal errors, want the one commit, refused", st.Commits, st.JournalErrors)
	}
}

// TestWriteInDoubtWhenContextEndsDuringCommit: once every member of a level
// has prepared, the decision is commit, so a context that ends while one
// member's commit is unacknowledged leaves the write in doubt — it is on the
// members that answered — not unavailable. A write and a one-key
// transaction run the same 2PC and must agree.
func TestWriteInDoubtWhenContextEndsDuringCommit(t *testing.T) {
	// The first member of every level never answers a commit, so the
	// transaction meets a silent member whichever level it draws.
	silentTo := map[transport.Addr]bool{}
	h := newScriptHarness(t, "1-3-5", func(_ int, m transport.Message) reaction {
		if _, ok := m.Payload.(wire.CommitReq); ok && silentTo[m.To] {
			return silent
		}
		return answer
	})
	for u := 0; u < h.proto.NumPhysicalLevels(); u++ {
		silentTo[transport.Addr(h.proto.LevelSites(u)[0])] = true
	}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"WriteAt level 0", func(ctx context.Context) error {
			_, err := h.cli.WriteAt(ctx, "w", []byte("v"), 0)
			return err
		}},
		{"one-key Txn", func(ctx context.Context) error {
			txn := h.cli.NewTxn()
			if err := txn.Write("t", []byte("v")); err != nil {
				return err
			}
			return txn.Commit(ctx)
		}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := tc.run(ctx)
		cancel()
		if !errors.Is(err, ErrInDoubt) {
			t.Errorf("%s: err = %v, want ErrInDoubt", tc.name, err)
		}
	}
	if m := h.cli.Metrics(); m.Writes != 2 || m.WriteFailures != 0 {
		t.Errorf("metrics = %+v, want 2 writes and no failures", m)
	}
}

func TestClientOverTCP(t *testing.T) {
	// The identical protocol stack over real loopback sockets with binary
	// framing: the transport abstraction holds end to end.
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewTCPNetwork()
	defer n.Close()
	var replicas []*replica.Replica
	for _, site := range tr.Sites() {
		ep, err := n.Listen(transport.Addr(site))
		if err != nil {
			t.Fatal(err)
		}
		r := replica.New(int(site), ep)
		r.Start()
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()
	cliEP, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(-1, cliEP, proto, WithTimeout(2*time.Second))
	defer cli.Close()

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cli.Write(ctx, "k", []byte{byte('a' + i)}); err != nil {
			t.Fatalf("TCP write %d: %v", i, err)
		}
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatalf("TCP read: %v", err)
	}
	if string(rd.Value) != "e" {
		t.Errorf("TCP read = %q, want \"e\"", rd.Value)
	}
	if err := ping(cli, 1); err != nil {
		t.Errorf("TCP ping: %v", err)
	}
}

// ping sends site one PingReq through the engine's one-site fan-out.
func ping(c *Client, site transport.Addr) error {
	a := c.fanout(context.Background(), []transport.Addr{site}, nil, "ping", replica.PingReq{})
	defer a.release()
	s := &a.slots[0]
	if s.err == nil && s.resp.Tag != wire.TagPingResp {
		return fmt.Errorf("unexpected ping response tag %d", s.resp.Tag)
	}
	return s.err
}

func TestReqIDOfUnknownPayload(t *testing.T) {
	if _, ok := rpc.ReqIDOf("garbage"); ok {
		t.Error("unknown payload produced a request ID")
	}
	if id, ok := rpc.ReqIDOf(replica.PingResp{ReqID: 9}); !ok || id != 9 {
		t.Error("PingResp extraction failed")
	}
}

func TestWriteAtPinsLevel(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		wr, err := h.cli.WriteAt(ctx, "k", []byte("v"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Level != 1 {
			t.Fatalf("pinned write landed on level %d", wr.Level)
		}
	}
	// When the pinned level cannot form a quorum, the write falls back.
	h.replicas[2].Crash() // site 3 = first member of level 1
	wr, err := h.cli.WriteAt(ctx, "k", []byte("v"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Level != 0 {
		t.Errorf("fallback write landed on level %d, want 0", wr.Level)
	}
	// Out-of-range levels are rejected.
	if _, err := h.cli.WriteAt(ctx, "k", nil, 5); err == nil {
		t.Error("level 5 accepted")
	}
	if _, err := h.cli.WriteAt(ctx, "k", nil, -1); err == nil {
		t.Error("level -1 accepted")
	}
}
