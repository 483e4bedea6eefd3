package client

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/tree"
	"arbor/internal/wire"
)

// reaction is what the scripted transport does with one request.
type reaction int

const (
	answer     reaction = iota // reply at once with the matching response
	silent                     // accept the request and never reply
	refuse                     // reply at once with a catching-up refusal
	shed                       // reply at once with a load-shed carrying shedRetryAfter
	failSend                   // Send returns an error
	answerLate                 // reply after lateAfter
	answerSlow                 // reply after slowAfter
)

const (
	shedRetryAfter = 7 * time.Millisecond
	lateAfter      = 25 * time.Millisecond
	slowAfter      = 100 * time.Millisecond
)

// scriptConn is a transport.Conn whose peers are a script: react decides
// what happens to the n-th request sent (counting from 0). Every request is
// kept in sent, accepted or not — what the transport saw.
type scriptConn struct {
	in chan transport.Message

	mu    sync.Mutex
	sent  []transport.Message
	react func(n int, m transport.Message) reaction
	// stored is the newest commit each site acknowledged, per key: the site
	// answers reads and version probes at that version from then on (at
	// replyTo's "v"@1 before), and a read whose floor is above it with the
	// timestamp alone, as a replica does.
	stored map[siteKey]wire.Timestamp
	// seen gets one token per request, for tests that act mid-operation.
	seen chan struct{}
}

type siteKey struct {
	site transport.Addr
	key  string
}

func newScriptConn(react func(n int, m transport.Message) reaction) *scriptConn {
	// Sized to the requests any one test sends, so signalling never blocks.
	return &scriptConn{in: make(chan transport.Message, 1<<16), seen: make(chan struct{}, 1<<16), react: react, stored: make(map[siteKey]wire.Timestamp)}
}

// replyFrom is replyTo as site would give it after the commits it has
// acknowledged.
func (c *scriptConn) replyFrom(site transport.Addr, req any, refused bool) any {
	resp := replyTo(req, refused)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := resp.(type) {
	case wire.ReadResp:
		if ts, ok := c.stored[siteKey{site, m.Key}]; ok && !refused {
			m.TS = ts
		}
		if !refused && req.(wire.ReadReq).ValueOmitted(m.TS) {
			m.Value = nil
		}
		return m
	case wire.VersionResp:
		if ts, ok := c.stored[siteKey{site, m.Key}]; ok && !refused {
			m.TS = ts
		}
		return m
	case wire.CommitResp:
		cr := req.(wire.CommitReq)
		if k := (siteKey{site, cr.Key}); cr.TS.After(c.stored[k]) {
			c.stored[k] = cr.TS
		}
	}
	return resp
}

func (c *scriptConn) Addr() transport.Addr           { return -1 }
func (c *scriptConn) Recv() <-chan transport.Message { return c.in }

func (c *scriptConn) Send(to transport.Addr, payload any) error {
	m := transport.Message{From: -1, To: to, Payload: payload}
	c.mu.Lock()
	n := len(c.sent)
	c.sent = append(c.sent, m)
	react := c.react
	c.mu.Unlock()
	c.seen <- struct{}{}
	switch r := react(n, m); r {
	case failSend:
		return errors.New("script: link down")
	case answer:
		c.in <- transport.Message{From: to, To: -1, Payload: c.replyFrom(to, payload, false)}
	case refuse:
		c.in <- transport.Message{From: to, To: -1, Payload: c.replyFrom(to, payload, true)}
	case shed:
		id, _ := reqIDOf(payload)
		c.in <- transport.Message{From: to, To: -1, Payload: wire.OverloadedResp{ReqID: id, RetryAfterMillis: uint64(shedRetryAfter / time.Millisecond)}}
	case answerLate, answerSlow:
		after := lateAfter
		if r == answerSlow {
			after = slowAfter
		}
		time.AfterFunc(after, func() {
			c.in <- transport.Message{From: to, To: -1, Payload: c.replyFrom(to, payload, false)}
		})
	}
	return nil
}

// script swaps the reaction function.
func (c *scriptConn) script(react func(n int, m transport.Message) reaction) {
	c.mu.Lock()
	c.react = react
	c.mu.Unlock()
}

// requests snapshots what the transport saw so far.
func (c *scriptConn) requests() []transport.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.Message(nil), c.sent...)
}

func reqIDOf(req any) (uint64, bool) {
	switch m := req.(type) {
	case wire.ReadReq:
		return m.ReqID, true
	case wire.VersionReq:
		return m.ReqID, true
	case wire.PrepareReq:
		return m.ReqID, true
	case wire.CommitReq:
		return m.ReqID, true
	case wire.AbortReq:
		return m.ReqID, true
	case wire.PingReq:
		return m.ReqID, true
	}
	return 0, false
}

// replyTo builds the response a healthy (or catching-up) replica storing
// "v"@1 under every key would give to a request without a floor.
func replyTo(req any, refused bool) any {
	ts := wire.Timestamp{Version: 1, Site: -1}
	switch m := req.(type) {
	case wire.ReadReq:
		if refused {
			return wire.ReadResp{ReqID: m.ReqID, Key: m.Key, Refused: true}
		}
		return wire.ReadResp{ReqID: m.ReqID, Key: m.Key, Value: []byte("v"), TS: ts, Found: true}
	case wire.VersionReq:
		if refused {
			return wire.VersionResp{ReqID: m.ReqID, Key: m.Key, Refused: true}
		}
		return wire.VersionResp{ReqID: m.ReqID, Key: m.Key, TS: ts, Found: true}
	case wire.PrepareReq:
		return wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}
	case wire.CommitReq:
		return wire.CommitResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}
	case wire.AbortReq:
		return wire.AbortResp{ReqID: m.ReqID, TxID: m.TxID}
	case wire.PingReq:
		return wire.PingResp{ReqID: m.ReqID, Site: 1}
	}
	return nil
}

// byArrival reacts to the n-th request with steps[n], and answers once the
// steps run out.
func byArrival(steps ...reaction) func(int, transport.Message) reaction {
	return func(n int, _ transport.Message) reaction {
		if n < len(steps) {
			return steps[n]
		}
		return answer
	}
}

type scriptHarness struct {
	conn  *scriptConn
	cli   *Client
	proto *core.Protocol
	obs   *obs.Observer
}

// newScriptHarness builds a client over a scripted transport. The client
// timeout is long (400ms) and the hedge delay short (2ms), so a test that
// finishes fast proves nothing waited out a timeout.
func newScriptHarness(t *testing.T, spec string, react func(int, transport.Message) reaction, opts ...Option) *scriptHarness {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := &scriptHarness{conn: newScriptConn(react), proto: proto, obs: obs.NewObserver(16)}
	opts = append([]Option{WithTimeout(400 * time.Millisecond), WithHedgeDelay(2 * time.Millisecond), WithSeed(1), WithObserver(h.obs)}, opts...)
	h.cli = New(-1, h.conn, proto, opts...)
	t.Cleanup(h.cli.Close)
	return h
}

// warm gives every site the same small learned latency: hedging is gated
// on, and the level's floor stays far below the hedge delay.
func (h *scriptHarness) warm() {
	for u := 0; u < h.proto.NumPhysicalLevels(); u++ {
		for _, s := range h.proto.LevelSites(u) {
			for i := 0; i < 8; i++ {
				h.cli.book.observe(transport.Addr(s), outcomeServed, 5*time.Microsecond)
			}
		}
	}
}

func byArrivalAlways(r reaction) func(int, transport.Message) reaction {
	return func(int, transport.Message) reaction { return r }
}

// lastTrace returns the most recent operation trace.
func (h *scriptHarness) lastTrace(t *testing.T) obs.OpTrace {
	t.Helper()
	tr := h.obs.Rec().Last(1)
	if len(tr) != 1 {
		t.Fatal("no trace recorded")
	}
	return tr[0]
}

// TestAssemblyTransitions drives one read on a one-level tree ("1-2": two
// candidate sites) through each transition of the state machine. Requests
// are scripted by arrival order, so the cases do not depend on which site
// the shuffle puts first.
func TestAssemblyTransitions(t *testing.T) {
	type result struct {
		res     ReadResult
		err     error
		elapsed time.Duration
		reqs    []transport.Message
	}
	cases := []struct {
		name   string
		opts   []Option
		warm   bool
		before func(t *testing.T, h *scriptHarness)
		script func(int, transport.Message) reaction
		check  func(t *testing.T, h *scriptHarness, r result)
	}{
		{
			name: "healthy: one contact, no hedge",
			// Not a hedging case: the harness's 2ms hedge delay would fire on
			// a reply the scheduler happens to hold up that long.
			opts:   []Option{WithHedgeDelay(time.Hour)},
			warm:   true,
			script: byArrival(),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if r.err != nil || string(r.res.Value) != "v" {
					t.Fatalf("read = %q, %v", r.res.Value, r.err)
				}
				if r.res.Contacts != 1 || len(r.reqs) != 1 {
					t.Errorf("contacts = %d, requests = %d, want 1 and 1", r.res.Contacts, len(r.reqs))
				}
				if n := h.cli.instr.hedges.Value(); n != 0 {
					t.Errorf("hedges = %d on a healthy read", n)
				}
			},
		},
		{
			name:   "primary silent: hedge wins, primary scored failed",
			warm:   true,
			script: byArrival(silent),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if r.err != nil || r.elapsed > 200*time.Millisecond {
					t.Fatalf("read err = %v after %v, want a hedge win well before the timeout", r.err, r.elapsed)
				}
				if r.res.Contacts != 2 || len(r.reqs) != 2 {
					t.Fatalf("contacts = %d, requests = %d, want 2 and 2", r.res.Contacts, len(r.reqs))
				}
				if h.cli.instr.hedges.Value() != 1 || h.cli.instr.hedgeWins.Value() != 1 {
					t.Errorf("hedges = %d, wins = %d, want 1 and 1", h.cli.instr.hedges.Value(), h.cli.instr.hedgeWins.Value())
				}
				primary, backup := r.reqs[0].To, r.reqs[1].To
				if e := h.cli.book.peek(primary); e.fail == 0 {
					t.Errorf("silent primary %d not scored as a failure: %+v", primary, e)
				}
				if e := h.cli.book.peek(backup); e.fail != 0 {
					t.Errorf("winning backup %d scored as failed: %+v", backup, e)
				}
				at := h.lastTrace(t).Attempts
				if len(at) != 1 || len(at[0].Contacts) != 2 || !at[0].OK {
					t.Fatalf("trace attempts = %+v, want one OK level with two contacts", at)
				}
				phases := map[string]bool{at[0].Contacts[0].Phase: true, at[0].Contacts[1].Phase: true}
				if !phases["read"] || !phases["read-hedge"] {
					t.Errorf("contact phases = %v, want read and read-hedge", phases)
				}
			},
		},
		{
			name:   "primary refuses (catching up): sibling at once",
			script: byArrival(refuse),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if r.err != nil || r.elapsed > 200*time.Millisecond {
					t.Fatalf("read err = %v after %v", r.err, r.elapsed)
				}
				if r.res.Contacts != 2 || h.cli.instr.hedges.Value() != 0 {
					t.Errorf("contacts = %d, hedges = %d, want 2 and 0", r.res.Contacts, h.cli.instr.hedges.Value())
				}
				if !h.cli.book.peek(r.reqs[0].To).refusing {
					t.Error("refusing site not marked")
				}
				if h.cli.instr.siteFallbacks.Value() != 1 {
					t.Errorf("site fallbacks = %d, want 1", h.cli.instr.siteFallbacks.Value())
				}
			},
		},
		{
			name:   "overload shed: sibling at once, site alive",
			script: byArrival(shed),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if r.err != nil || r.elapsed > 200*time.Millisecond {
					t.Fatalf("read err = %v after %v", r.err, r.elapsed)
				}
				if r.res.Contacts != 2 || h.cli.instr.overloads.Value() != 1 {
					t.Errorf("contacts = %d, overloaded = %d, want 2 and 1", r.res.Contacts, h.cli.instr.overloads.Value())
				}
				shedder := r.reqs[0].To
				if !h.cli.book.peek(shedder).refusing {
					t.Error("shedding site not marked refusing")
				}
				if e := h.cli.book.peek(shedder); e.samples > 0 {
					t.Errorf("shedding site scored: %+v", e)
				}
			},
		},
		{
			name:   "every candidate sheds: ErrOverloaded and retry-after in the chain",
			script: byArrivalAlways(shed),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if !errors.Is(r.err, ErrReadUnavailable) || !errors.Is(r.err, ErrOverloaded) {
					t.Fatalf("err = %v, want ErrReadUnavailable wrapping ErrOverloaded", r.err)
				}
				if d, ok := rpc.RetryAfter(r.err); !ok || d != shedRetryAfter {
					t.Errorf("retry-after = %v, %v, want %v", d, ok, shedRetryAfter)
				}
				if r.res.Contacts != 2 || h.cli.instr.overloads.Value() != 2 {
					t.Errorf("contacts = %d, overloaded = %d, want 2 and 2", r.res.Contacts, h.cli.instr.overloads.Value())
				}
			},
		},
		{
			name:   "failed send is a contact, and the sibling is tried",
			script: byArrival(failSend),
			check: func(t *testing.T, h *scriptHarness, r result) {
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.res.Contacts != 2 || len(r.reqs) != 2 {
					t.Errorf("contacts = %d, requests = %d, want 2 and 2", r.res.Contacts, len(r.reqs))
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			h := newScriptHarness(t, "1-2", tc.script, tc.opts...)
			if tc.warm {
				h.warm()
			}
			if tc.before != nil {
				tc.before(t, h)
				h.conn.script(tc.script)
			}
			skip := len(h.conn.requests())
			start := time.Now()
			res, err := h.cli.Read(context.Background(), "k")
			r := result{res: res, err: err, elapsed: time.Since(start)}
			r.reqs = h.conn.requests()[skip:]
			tc.check(t, h, r)
		})
	}
}

// TestAssemblyContextCancelled: a context cancelled mid-assembly ends the
// read at once with the context's error; the abandoned contacts are neither
// scored nor counted against their sites.
func TestAssemblyContextCancelled(t *testing.T) {
	h := newScriptHarness(t, "1-2-2", byArrivalAlways(silent))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-h.conn.seen
		<-h.conn.seen // one request per level is out
		cancel()
	}()
	start := time.Now()
	res, err := h.cli.Read(ctx, "k")
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrReadUnavailable) {
		t.Fatalf("err = %v, want ErrReadUnavailable wrapping context.Canceled", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("cancelled read returned after %v", d)
	}
	if res.Contacts != 2 {
		t.Errorf("contacts = %d, want 2 (one per level)", res.Contacts)
	}
	for _, m := range h.conn.requests() {
		if h.cli.book.peek(m.To).samples > 0 {
			t.Errorf("cancelled contact to site %d was scored", m.To)
		}
	}
}

// TestDoneContextFailsWithItsError: every phase run under a context that
// is already done fails with the context's error — a read's levels, a
// write's version discovery, a transaction's prepares. Past the deadline
// no request is sent, and no abort either, since no prepare was, and a
// read books one deadline skip per level: no fallback is tried; a
// cancelled context's contacts are abandoned.
func TestDoneContextFailsWithItsError(t *testing.T) {
	h := newScriptHarness(t, "1-3-5", byArrivalAlways(answer))
	spent, stop := context.WithDeadline(context.Background(), time.Now())
	defer stop()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{spent, cancelled} {
		txn := h.cli.NewTxn()
		if _, err := txn.Read(context.Background(), "t"); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("t", []byte("v")); err != nil {
			t.Fatal(err)
		}
		h.conn.script(byArrivalAlways(silent)) // no reply can race the context
		sent, skips := len(h.conn.requests()), h.cli.instr.deadlineSkips.Value()
		_, rerr := h.cli.Read(ctx, "k")
		if n := h.cli.instr.deadlineSkips.Value() - skips; ctx == spent && n != 2 {
			t.Errorf("read past the deadline booked %d deadline skips, want 2 (one per level)", n)
		}
		_, werr := h.cli.Write(ctx, "k", []byte("v"))
		cerr := txn.Commit(ctx)
		for op, err := range map[string]error{"read": rerr, "write": werr, "commit": cerr} {
			if !errors.Is(err, ctx.Err()) {
				t.Errorf("%s under %v: %v, want the context's error", op, ctx.Err(), err)
			}
		}
		if ctx == spent {
			for _, m := range h.conn.requests()[sent:] {
				t.Errorf("past the deadline, %T sent to site %d", m.Payload, m.To)
			}
		}
		h.conn.script(byArrivalAlways(answer))
	}
}

// TestAssemblyClosedMidOperation: Close while a read waits for replies
// fails it with ErrClosed.
func TestAssemblyClosedMidOperation(t *testing.T) {
	h := newScriptHarness(t, "1-2-2", byArrivalAlways(silent))
	go func() {
		<-h.conn.seen
		<-h.conn.seen
		h.cli.Close()
	}()
	start := time.Now()
	_, err := h.cli.Read(context.Background(), "k")
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("read on a closed client returned after %v", d)
	}
}

// TestAssemblyLateReplyDropped: the reply of a cancelled hedge loser, and a
// duplicate of the winner's, arrive after the operation is over. The
// caller drops both without blocking, and later operations are served.
func TestAssemblyLateReplyDropped(t *testing.T) {
	h := newScriptHarness(t, "1-2", byArrival(silent))
	h.warm()
	ctx := context.Background()
	if _, err := h.cli.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	reqs := h.conn.requests()
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want the silent primary and the hedge", len(reqs))
	}
	for i := 0; i < 3; i++ {
		for _, m := range reqs {
			h.conn.in <- transport.Message{From: m.To, To: -1, Payload: replyTo(m.Payload, false)}
		}
	}
	for i := 0; i < 50; i++ {
		rd, err := h.cli.Read(ctx, "k")
		if err != nil || string(rd.Value) != "v" || rd.Contacts != 1 {
			t.Fatalf("read %d after late replies = %q, %d contacts, %v", i, rd.Value, rd.Contacts, err)
		}
	}
}

// TestAssemblyDeadlineRidesTheWire: each attempt's deadline is the smaller
// of the client timeout and the context's remaining budget, and it is what
// the request carries as DeadlineMillis.
func TestAssemblyDeadlineRidesTheWire(t *testing.T) {
	h := newScriptHarness(t, "1-2", byArrival())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := h.cli.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cli.Read(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	reqs := h.conn.requests()
	if ms := reqs[0].Payload.(wire.ReadReq).DeadlineMillis; ms == 0 || ms > 50 {
		t.Errorf("DeadlineMillis under a 50ms context = %d, want within (0, 50]", ms)
	}
	if ms := reqs[1].Payload.(wire.ReadReq).DeadlineMillis; ms != 0 {
		t.Errorf("DeadlineMillis without a context deadline = %d, want 0", ms)
	}
}

// TestFailedReadCountsEveryLevel: with level 0 of 1-3-5 down, a failed read
// still reports the contacts of every level — as many as the transport saw
// — not only those up to the first failed level.
func TestFailedReadCountsEveryLevel(t *testing.T) {
	var proto *core.Protocol
	h := newScriptHarness(t, "1-3-5", func(_ int, m transport.Message) reaction {
		for _, s := range proto.LevelSites(0) {
			if transport.Addr(s) == m.To {
				return silent
			}
		}
		return answer
	}, WithTimeout(30*time.Millisecond), WithHedging(false))
	proto = h.proto
	rd, err := h.cli.Read(context.Background(), "k")
	if !errors.Is(err, ErrReadUnavailable) {
		t.Fatalf("err = %v, want ErrReadUnavailable", err)
	}
	saw := len(h.conn.requests())
	if want := len(proto.LevelSites(0)) + 1; saw != want {
		t.Fatalf("transport saw %d requests, want %d (all of level 0, one of level 1)", saw, want)
	}
	if rd.Contacts != saw {
		t.Errorf("ReadResult.Contacts = %d, transport saw %d", rd.Contacts, saw)
	}
	if m := h.cli.Metrics(); m.ReadContacts != uint64(saw) {
		t.Errorf("Metrics.ReadContacts = %d, transport saw %d", m.ReadContacts, saw)
	}
	if tr := h.lastTrace(t); tr.Contacts != saw {
		t.Errorf("trace totalContacts = %d, transport saw %d", tr.Contacts, saw)
	}
}

// TestFailedDiscoveryCountsContactsOnce: a write whose version discovery
// fails (level 0 of 1-3-5 down) sent only discovery requests. They are the
// write's contacts, counted once: WriteContacts is what the transport saw,
// and no read contact was booked.
func TestFailedDiscoveryCountsContactsOnce(t *testing.T) {
	var proto *core.Protocol
	h := newScriptHarness(t, "1-3-5", func(_ int, m transport.Message) reaction {
		for _, s := range proto.LevelSites(0) {
			if transport.Addr(s) == m.To {
				return silent
			}
		}
		return answer
	}, WithTimeout(30*time.Millisecond), WithHedging(false))
	proto = h.proto
	wr, err := h.cli.Write(context.Background(), "k", []byte("v"))
	if !errors.Is(err, ErrWriteUnavailable) || !errors.Is(err, ErrReadUnavailable) {
		t.Fatalf("err = %v, want ErrWriteUnavailable from a failed version discovery", err)
	}
	saw := len(h.conn.requests())
	if wr.Contacts != saw {
		t.Errorf("WriteResult.Contacts = %d, transport saw %d", wr.Contacts, saw)
	}
	if m := h.cli.Metrics(); m.ReadContacts != 0 || m.WriteContacts != uint64(saw) {
		t.Errorf("ReadContacts %d, WriteContacts %d, want 0 and the %d the transport saw", m.ReadContacts, m.WriteContacts, saw)
	}
}

const deepSpec = "1-2-2-2-2-2-2-2-2" // 8 physical levels of 2

// settledGoroutines reads the goroutine count once timers and finished
// goroutines of earlier tests have drained.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		runtime.GC()
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestAssemblySpawnsNoGoroutines: a thousand reads on the 8-level tree —
// plain, hedged and cancelled ones — leave the goroutine count where it
// was, and a read waiting for withheld replies costs no goroutine beyond
// its caller however many levels it spans.
func TestAssemblySpawnsNoGoroutines(t *testing.T) {
	h := newScriptHarness(t, deepSpec, byArrivalAlways(answer), WithTimeout(time.Second))
	h.warm()
	// Every 10th read finds its first request unanswered and hedges; every
	// 10th+5 is cancelled while all its levels wait. Requests are sent on
	// the reading goroutine, so the script shares these with the loop.
	mode, first := 0, false
	h.conn.script(func(int, transport.Message) reaction {
		switch {
		case mode == 1 && first:
			first = false
			return silent
		case mode == 2:
			return silent
		}
		return answer
	})
	before := settledGoroutines()
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		switch {
		case i%10 == 0:
			mode, first = 1, true
		case i%10 == 5:
			mode = 2
			time.AfterFunc(time.Millisecond, cancel)
		default:
			mode = 0
		}
		_, err := h.cli.Read(ctx, "k")
		cancel()
		if (err != nil) != (mode == 2) {
			t.Fatalf("read %d (mode %d): %v", i, mode, err)
		}
	}
	if h.cli.instr.hedges.Value() == 0 {
		t.Error("no read hedged; the mix did not exercise the hedge transition")
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines: %d before 1000 reads, %d after", before, after)
	}

	// Withheld replies: the waiting read is its caller's goroutine and
	// nothing else, on 1 level as on 8.
	waiting := func(spec string) int {
		w := newScriptHarness(t, spec, byArrivalAlways(silent), WithTimeout(time.Second))
		base := settledGoroutines()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = w.cli.Read(ctx, "k")
		}()
		for u := 0; u < w.proto.NumPhysicalLevels(); u++ {
			<-w.conn.seen
		}
		extra := settledGoroutines() - base
		cancel()
		<-done
		return extra
	}
	shallow, deep := waiting("1-2"), waiting(deepSpec)
	if shallow != 1 || deep != 1 {
		t.Errorf("goroutines held by a waiting read: %d on 1 level, %d on 8 levels; want 1 and 1", shallow, deep)
	}
}

// TestSiteSequenceIndependentOfScheduling: the quorum-selection draws of an
// operation are made in level order on the calling goroutine, so two
// clients with one seed contact the identical per-level site sequence over
// 500 reads on the 8-level tree, whether the runtime has one processor or
// four.
func TestSiteSequenceIndependentOfScheduling(t *testing.T) {
	sequence := func(procs int) []transport.Addr {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// The draws are what is under test: with the hedge delay out of
		// reach, a reply the scheduler stalls past the harness's 2ms neither
		// launches a hedge nor counts as a material latency that reorders.
		h := newScriptHarness(t, deepSpec, byArrivalAlways(answer), WithSeed(42), WithHedgeDelay(time.Hour))
		for i := 0; i < 500; i++ {
			if _, err := h.cli.Read(context.Background(), "k"); err != nil {
				t.Fatal(err)
			}
		}
		var seq []transport.Addr
		for _, m := range h.conn.requests() {
			seq = append(seq, m.To)
		}
		return seq
	}
	one, four := sequence(1), sequence(4)
	if want := 500 * 8; len(one) != want || len(four) != want {
		t.Fatalf("requests: %d with GOMAXPROCS=1, %d with 4; want %d each (one per level per read)", len(one), len(four), want)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("read %d level %d: site %d with GOMAXPROCS=1, site %d with 4", i/8, i%8, one[i], four[i])
		}
	}
}

// TestReleaseDropsAStrayInbox: an assembly whose request ended any other
// way than by its reply (a timeout, a cancellation, a failed start) gives
// up its inbox when released. The caller may still be delivering that
// reply, so the operation that takes the assembly from the pool next must
// get an inbox of its own.
func TestReleaseDropsAStrayInbox(t *testing.T) {
	var c Client
	reused := 0
	for i := 0; i < 100 && reused < 10; i++ {
		a := c.newAssembly(context.Background(), nil, "read", 1)
		inbox := a.inbox
		a.stray = true
		a.release()
		b := c.newAssembly(context.Background(), nil, "read", 1)
		if b == a {
			reused++
			if b.inbox == inbox {
				t.Fatal("the next operation got the inbox a stray reply may still reach")
			}
		}
		b.release()
	}
	if reused == 0 {
		t.Fatal("the pool never handed the released assembly back; nothing was checked")
	}
}
