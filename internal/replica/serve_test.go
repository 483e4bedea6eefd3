package replica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// brokenConn is a Conn whose every Send fails, as a reply does once the
// requester's connection is gone.
type brokenConn struct {
	in    chan transport.Message
	tried chan struct{}
}

func (c *brokenConn) Addr() transport.Addr           { return 1 }
func (c *brokenConn) Recv() <-chan transport.Message { return c.in }
func (c *brokenConn) Send(transport.Addr, any) error {
	c.tried <- struct{}{}
	return errors.New("connection reset")
}

func TestReplyErrorsCounted(t *testing.T) {
	const reads = 50
	conn := &brokenConn{in: make(chan transport.Message, reads), tried: make(chan struct{}, reads)}
	r := New(1, conn)
	r.Start()
	for i := 0; i < reads; i++ {
		conn.in <- transport.Message{From: -1, To: 1, Payload: ReadReq{ReqID: uint64(i + 1), Key: "k"}}
	}
	for i := 0; i < reads; i++ {
		select {
		case <-conn.tried:
		case <-time.After(10 * time.Second):
			t.Fatalf("replica tried %d of %d replies", i, reads)
		}
	}
	r.Stop() // returns only once the last handler has: the counters are final
	if st := r.Stats(); st.ReplyErrors != reads || st.Reads != reads || st.Messages != reads {
		t.Errorf("stats = %+v, want ReplyErrors = Reads = Messages = %d", st, reads)
	}
}

func TestFailPointFiresOnceUnderConcurrency(t *testing.T) {
	const callers = 8
	// 1: of the deliveries racing for an armed fail point, one is told to fail.
	r := New(1, &brokenConn{tried: make(chan struct{}, callers)})
	// Persistent callers spin on the round number, so that they are running,
	// not being woken one by one, when the fail point is armed.
	const rounds = 20000
	var round, finished, hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(1); n <= rounds; n++ {
				for round.Load() < n {
					runtime.Gosched()
				}
				if r.shouldFail(wire.TagCommitReq) {
					hits.Add(1)
				}
				finished.Add(1)
			}
		}()
	}
	for n := int64(1); n <= rounds; n++ {
		r.SetFailPoint(FailOnCommit)
		round.Store(n)
		for finished.Load() < n*callers {
			runtime.Gosched()
		}
		fp := FailPoint(r.failpoint.Load())
		if hits.Load() != n || fp != FailNone {
			round.Store(rounds) // release the callers before failing
			wg.Wait()
			t.Fatalf("round %d: %d deliveries observed the fail point (want exactly 1), which then read %d (want FailNone)",
				n, hits.Load()-(n-1), fp)
		}
	}
	wg.Wait()

	// 2: through deliver. Whoever hits crashes the replica and is not
	// counted; the rest are counted and answered, or found it down.
	conn := &brokenConn{tried: make(chan struct{}, callers)}
	r = New(1, conn)
	r.SetFailPoint(FailOnCommit)
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			r.deliver(-1, held(CommitReq{
				ReqID: uint64(g + 1), TxID: uint64(g + 1), Key: fmt.Sprintf("k%d", g), TS: Timestamp{Version: 1, Site: g},
			}))
		}(g)
	}
	close(start)
	wg.Wait()
	if r.Health() != HealthDown {
		t.Errorf("health = %v after the fail point fired, want down", r.Health())
	}
	if fp := FailPoint(r.failpoint.Load()); fp != FailNone {
		t.Errorf("fail point reads %d after firing, want FailNone", fp)
	}
	st := r.Stats()
	if st.Messages > callers-1 || st.Commits != st.Messages || int(st.Messages) != len(conn.tried) {
		t.Errorf("messages %d, commits %d, replies tried %d: want all equal and at most %d",
			st.Messages, st.Commits, len(conn.tried), callers-1)
	}
}

// held returns payload in a holder, as a transport hands it to a handler.
func held(payload any) *wire.Msg {
	m := new(wire.Msg)
	if err := m.Set(payload); err != nil {
		panic(err)
	}
	return m
}

// replyConn hands each reply to its addressee's channel, so a handler
// called directly has answered by the time it returns.
type replyConn map[transport.Addr]chan any

func (c replyConn) Addr() transport.Addr           { return 1 }
func (c replyConn) Recv() <-chan transport.Message { return nil }
func (c replyConn) Send(to transport.Addr, payload any) error {
	c[to] <- payload
	return nil
}

// TestPrepareRacesCommit races two writers on one key through the replica's
// handler. A prepares {v+1, site 1} on the version it read and commits it;
// B prepares {v+1, site 2} on the version it read and, while it holds the
// lock, checks that what is stored is still older than its timestamp, then
// aborts. B checks holding the committing token, which A holds across each
// commit, so a commit B's prepare raced has landed by then. No prepare may
// be admitted at or below a committed timestamp: a commit that released its
// lock before installing its value would let B in between, and A's value
// (site 1 wins the tie) would land above B's admitted prepare.
func TestPrepareRacesCommit(t *testing.T) {
	const (
		rounds = 2000 // each writer's minimum of commits (A) or admitted prepares (B)
		a, b   = transport.Addr(-1), transport.Addr(-2)
	)
	conn := replyConn{a: make(chan any, 1), b: make(chan any, 1)}
	r := New(1, conn, WithLockTTL(time.Hour))
	call := func(from transport.Addr, req any) any {
		r.handle(from, held(req))
		return <-conn[from]
	}
	prepare := func(from transport.Addr, txID uint64, site int) (Timestamp, bool) {
		v := call(from, VersionReq{Key: "k", ForWrite: true}).(VersionResp).TS.Version
		ts := Timestamp{Version: v + 1, Site: site}
		return ts, call(from, PrepareReq{TxID: txID, Key: "k", TS: ts}).(PrepareResp).OK
	}
	var commits, admits atomic.Int64
	running := func() bool { return commits.Load() < rounds || admits.Load() < rounds }
	committing := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // A
		defer wg.Done()
		for tx := uint64(1); running(); tx += 2 {
			if ts, ok := prepare(a, tx, 1); ok {
				committing <- struct{}{}
				call(a, CommitReq{TxID: tx, Key: "k", Value: []byte("a"), TS: ts})
				<-committing
				commits.Add(1)
			}
		}
	}()
	go func() { // B
		defer wg.Done()
		for tx := uint64(2); running(); tx += 2 {
			ts, ok := prepare(b, tx, 2)
			if !ok {
				continue
			}
			committing <- struct{}{}
			stored, _ := r.Store().Version("k")
			<-committing
			if !ts.After(stored) {
				t.Errorf("prepare admitted at %v, at or below the committed %v", ts, stored)
			}
			r.handle(b, held(AbortReq{TxID: tx, Key: "k"})) // one-way: no reply
			admits.Add(1)
		}
	}()
	wg.Wait()
}

// allStacks returns every goroutine's stack, so a stalled test shows what
// was stuck, not only that something was.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// tcpClient is one dial-only endpoint with a single connection to site 1.
type tcpClient struct {
	id    int
	ep    transport.Conn
	acked map[string]Timestamp // newest acknowledged commit per key
}

// TestStopUnderLoad races Crash/Recover, Drain and finally Stop against
// four connections of mixed traffic over loopback TCP, where every handler
// runs on its connection's read loop. phase counts the test's steps, and
// phase%3 says what a request sent in it may expect until the phase moves
// on: phaseLive from Recover's return on, an answer; phaseDown from the
// moment Crash, Drain or Stop has returned, silence; phaseRecovering, while
// Recover runs, either.
func TestStopUnderLoad(t *testing.T) {
	const (
		phaseLive = iota
		phaseDown
		phaseRecovering
	)
	net := transport.NewTCPNetwork(transport.WithConnsPerPeer(1))
	defer net.Close()
	ep, err := net.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "site-1.wal")
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	r := New(1, ep)
	r.Store().AttachJournal(wal)
	r.Start()

	var (
		phase     atomic.Int64 // see above
		answered  atomic.Int64 // replies matched to their request
		downSends atomic.Int64 // requests sent in a phaseDown phase
		quit      = make(chan struct{})
		wg        sync.WaitGroup
	)
	clients := make([]*tcpClient, 4)
	for i := range clients {
		cep, err := net.Dial(transport.Addr(-(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &tcpClient{id: i + 1, ep: cep, acked: make(map[string]Timestamp)}
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *tcpClient) {
			defer wg.Done()
			tick := time.NewTicker(200 * time.Microsecond)
			defer tick.Stop()
			for n := uint64(1); ; n++ {
				// The four requests of a group share a key, so each prepare's
				// lock is released by the commit that follows it.
				key := fmt.Sprintf("c%d-k%d", c.id, n/4%7)
				ts := Timestamp{Version: n, Site: c.id}
				var req any
				switch n % 4 {
				case 0:
					req = ReadReq{ReqID: n, Key: key}
				case 1:
					req = VersionReq{ReqID: n, Key: key, ForWrite: true}
				case 2:
					req = PrepareReq{ReqID: n, TxID: n, Key: key, TS: ts}
				case 3:
					req = CommitReq{ReqID: n, TxID: n - 1, Key: key, Value: []byte(key), TS: ts}
				}
				p0 := phase.Load()
				if err := c.ep.Send(1, req); err != nil {
					t.Errorf("client %d: send: %v", c.id, err)
					return
				}
				if p0%3 == phaseDown {
					downSends.Add(1)
				}
				deadline := time.After(20 * time.Second)
			await:
				for {
					select {
					case m := <-c.ep.Recv():
						if id, _ := rpc.ReqIDOf(m.Payload); id != n {
							continue // a reply to a request given up on in an earlier down window
						}
						if p0%3 == phaseDown && phase.Load() == p0 {
							t.Errorf("client %d: request %d, sent after the replica was down and before Recover, was answered: %#v", c.id, n, m.Payload)
						}
						answered.Add(1)
						if resp, ok := m.Payload.(CommitResp); ok && resp.OK {
							c.acked[key] = ts
						}
						break await
					case <-tick.C:
						if phase.Load() != p0 {
							break await // a down window overlapped the request: silence is allowed
						}
					case <-quit:
						return
					case <-deadline:
						t.Errorf("client %d: request %d unanswered, and phase %d unchanged, for 20s; goroutines:\n%s", c.id, n, p0, allStacks())
						return
					}
				}
			}
		}(c)
	}

	// waitFor blocks until the counter reaches target.
	waitFor := func(counter *atomic.Int64, target int64, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for counter.Load() < target {
			if time.Now().After(deadline) {
				stacks := allStacks() // before quit releases what was stuck
				close(quit)
				wg.Wait()
				t.Fatalf("timed out waiting for %s; goroutines:\n%s", what, stacks)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	down := func(fault func()) {
		waitFor(&answered, answered.Load()+200, "traffic while live")
		fault()
		// Each client sends one request into the down window, then waits
		// for the phase to move on. Count from before the phase says so: a
		// client may send the moment it does.
		target := downSends.Load() + int64(len(clients))
		phase.Add(1) // phaseDown: the fault has returned
		waitFor(&downSends, target, "requests sent while down")
	}
	revive := func() {
		phase.Add(1) // phaseRecovering: a request sent now may find the replica still down
		r.Recover(SyncPlan{})
		phase.Add(1) // phaseLive
	}
	for cycle := 0; cycle < 3; cycle++ {
		down(r.Crash)
		revive()
	}
	down(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	revive()

	// A served TCP replica has no goroutine of its own between the socket
	// and the handler.
	dump := allStacks()
	if strings.Contains(dump, "transport.Serve.func") || strings.Contains(dump, "(*Replica).run") {
		t.Errorf("a pump or event-loop goroutine exists beside the TCP read loops:\n%s", dump)
	}

	down(r.Stop)
	close(quit)
	wg.Wait()

	// Every message counted was answered by exactly one frame.
	st, frames := r.Stats(), ep.Stats()
	if st.Messages != frames.FramesOut+st.ReplyErrors {
		t.Errorf("Messages = %d, but %d replies written and %d failed", st.Messages, frames.FramesOut, st.ReplyErrors)
	}
	if st.Messages == 0 || st.Messages > frames.FramesIn {
		t.Errorf("Messages = %d of %d frames read", st.Messages, frames.FramesIn)
	}
	if int64(st.Messages) < answered.Load() {
		t.Errorf("clients matched %d replies to %d handled messages", answered.Load(), st.Messages)
	}

	// Every acknowledged commit is in the journal.
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := replayFile(t, walPath)
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	for _, c := range clients {
		for key, ts := range c.acked {
			acks++
			if got, found := replayed.Version(key); !found || ts.After(got) {
				t.Errorf("acknowledged commit %s@%v missing from the replayed journal (found %v, %v)", key, ts, got, found)
			}
		}
	}
	if acks == 0 {
		t.Error("no commit was acknowledged: the test exercised nothing")
	}
}
