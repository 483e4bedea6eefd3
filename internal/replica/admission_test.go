package replica

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPrepareReserve(t *testing.T) {
	cases := []struct{ limit, want int }{
		{1, 0}, // degenerate limit: reads keep the only slot
		{2, 1},
		{3, 1},
		{4, 1},
		{8, 2},
		{64, 16},
	}
	for _, c := range cases {
		if got := prepareReserve(c.limit); got != c.want {
			t.Errorf("prepareReserve(%d) = %d, want %d", c.limit, got, c.want)
		}
	}
}

// TestSaturateShedsGatedNeverPhaseTwo arms the deterministic overload fault
// and checks the shed priority contract: reads and prepares come back as
// typed OverloadedResp with a retry-after hint, while phase-two commits are
// still served — a prepared site must always hear the outcome.
func TestSaturateShedsGatedNeverPhaseTwo(t *testing.T) {
	h := newHarness(t)
	h.rep.Saturate(true)

	read := h.call(t, ReadReq{ReqID: 1, Key: "k"})
	if resp, ok := read.(OverloadedResp); !ok {
		t.Fatalf("saturated read reply = %T, want OverloadedResp", read)
	} else if resp.RetryAfterMillis == 0 {
		t.Error("saturated read shed without a retry-after hint")
	}
	prep := h.call(t, PrepareReq{ReqID: 2, TxID: 9, Key: "k", TS: Timestamp{Version: 1, Site: 1}})
	if _, ok := prep.(OverloadedResp); !ok {
		t.Fatalf("saturated prepare reply = %T, want OverloadedResp", prep)
	}
	commit := h.call(t, CommitReq{ReqID: 3, TxID: 9, Key: "k"})
	if _, ok := commit.(CommitResp); !ok {
		t.Fatalf("saturated commit reply = %T, want CommitResp (commits are never shed)", commit)
	}
	if got := h.rep.Stats().Sheds; got != 2 {
		t.Errorf("Sheds = %d, want 2 (read + prepare, not the commit)", got)
	}

	h.rep.Saturate(false)
	again := h.call(t, ReadReq{ReqID: 4, Key: "k"})
	if _, ok := again.(ReadResp); !ok {
		t.Fatalf("unsaturated read reply = %T, want ReadResp", again)
	}
}

// TestGatePrepareReserveAdmitsUnderReadPressure holds the read share of a
// limit-4 gate (reserve 1) with three slowed reads. A fourth read is shed
// busy at once, hinting (3 in flight + 1) × 2 ms; a prepare still takes the
// reserved slot; a commit is served at once; and a second prepare, finding
// every slot taken, is shed busy too.
func TestGatePrepareReserveAdmitsUnderReadPressure(t *testing.T) {
	h := newHarness(t, WithMaxInflight(4))
	h.rep.SlowBy(time.Minute) // the harness's Stop cancels what is still held
	for i := uint64(1); i <= 3; i++ {
		if err := h.client.Send(1, ReadReq{ReqID: i, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	busy := func(reqID, hintMillis uint64, payload any) {
		t.Helper()
		resp, ok := h.call(t, payload).(OverloadedResp)
		if !ok || resp.ReqID != reqID || resp.RetryAfterMillis != hintMillis {
			t.Fatalf("reply = %+v, want OverloadedResp{ReqID: %d, RetryAfterMillis: %d}", resp, reqID, hintMillis)
		}
	}
	busy(4, 8, ReadReq{ReqID: 4, Key: "k"})

	if err := h.client.Send(1, PrepareReq{ReqID: 5, TxID: 5, Key: "k", TS: Timestamp{Version: 1, Site: 1}}); err != nil {
		t.Fatal(err)
	}
	if resp, ok := h.call(t, CommitReq{ReqID: 6, TxID: 6, Key: "other", TS: Timestamp{Version: 1, Site: 1}}).(CommitResp); !ok || !resp.OK {
		t.Fatalf("commit under read pressure = %+v, want an immediate CommitResp", resp)
	}
	busy(7, 10, PrepareReq{ReqID: 7, TxID: 7, Key: "k2", TS: Timestamp{Version: 1, Site: 1}})

	if got := h.rep.gate.inflight.Load(); got != 4 {
		t.Errorf("in flight = %d, want 4 (three reads and the prepare)", got)
	}
	if got := h.rep.shedBy["busy"].Value(); got != 2 {
		t.Errorf("busy sheds = %d, want 2", got)
	}
}

// TestGateStopCancelsSlowedWork: Stop does not wait out a slowed request's
// delay. It cancels the timer, frees the slot, and the request is never
// answered.
func TestGateStopCancelsSlowedWork(t *testing.T) {
	h := newHarness(t)
	h.rep.SlowBy(time.Minute)
	if err := h.client.Send(1, ReadReq{ReqID: 1, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	for h.rep.gate.inflight.Load() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	h.rep.Stop()
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Stop took %v with a slowed request pending", d)
	}
	if got := h.rep.gate.inflight.Load(); got != 0 {
		t.Errorf("in flight after Stop = %d, want 0", got)
	}
	select {
	case msg := <-h.client.Recv():
		t.Errorf("a cancelled request was answered: %+v", msg.Payload)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestGateStopWaitsOutAFiredTimer: a slowed request whose timer fires while
// stop is taking the gate's lock is served, and stop returns. The timer's
// callback needs that lock before it can finish, so stop must release it
// before it waits for the requests being served. The test holds the lock
// until both stop and the callback queue on it, stop first.
func TestGateStopWaitsOutAFiredTimer(t *testing.T) {
	h := newHarness(t)
	h.rep.SlowBy(20 * time.Millisecond)
	g := h.rep.gate
	if err := h.client.Send(1, ReadReq{ReqID: 1, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	for g.inflight.Load() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	g.slowMu.Lock()
	stopped := make(chan struct{})
	go func() {
		g.stop()
		close(stopped)
	}()
	awaitBlockedOnLock(t, "(*gate).stop")
	awaitBlockedOnLock(t, "serveAfter.func1")
	g.slowMu.Unlock()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("gate.stop did not return while a fired timer waited for its lock")
	}
	if got := g.inflight.Load(); got != 0 {
		t.Errorf("in flight after stop = %d, want 0", got)
	}
}

// awaitBlockedOnLock waits until a goroutine running fn is blocked taking a
// mutex.
func awaitBlockedOnLock(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s blocked on a mutex", fn)
}

// TestDrainQuiescesAndGoesDown drains an idle replica: Drain returns, the
// lifecycle lands on HealthDown, and the site then behaves exactly like a
// crashed one — silent — so the existing recovery paths bring it back.
func TestDrainQuiescesAndGoesDown(t *testing.T) {
	h := newHarness(t)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.rep.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !h.rep.draining.Load() {
		t.Error("draining = false after Drain")
	}
	if got := h.rep.Health(); got != HealthDown {
		t.Errorf("health after drain = %v, want HealthDown", got)
	}
	h.expectSilence(t, ReadReq{ReqID: 1, Key: "k"})

	h.rep.Recover(SyncPlan{})
	read := h.call(t, ReadReq{ReqID: 2, Key: "k"})
	if _, ok := read.(ReadResp); !ok {
		t.Fatalf("post-recover read reply = %T, want ReadResp", read)
	}
}

// TestDrainWaitsForInflight holds a gated slot with a slowed read while a
// drain starts and checks Drain only returns after that read is answered.
func TestDrainWaitsForInflight(t *testing.T) {
	h := newHarness(t, WithMaxInflight(1))
	h.rep.SlowBy(200 * time.Millisecond)
	if err := h.client.Send(1, ReadReq{ReqID: 1, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	for h.rep.gate.inflight.Load() != 1 {
		time.Sleep(100 * time.Microsecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- h.rep.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	// While draining (not yet down), new gated work sheds with the typed
	// reply so clients move on immediately instead of timing out.
	midDrain := h.call(t, ReadReq{ReqID: 7, Key: "k"})
	if _, ok := midDrain.(OverloadedResp); !ok {
		t.Fatalf("mid-drain read reply = %T, want OverloadedResp", midDrain)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain after quiesce: %v", err)
	}
	select {
	case msg := <-h.client.Recv():
		if resp, ok := msg.Payload.(ReadResp); !ok || resp.ReqID != 1 {
			t.Fatalf("in-flight read reply = %+v, want ReadResp{ReqID: 1}", msg.Payload)
		}
	default:
		t.Fatal("Drain returned before the in-flight read was answered")
	}
	if got := h.rep.Health(); got != HealthDown {
		t.Errorf("health after drain = %v, want HealthDown", got)
	}
}
