package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// echoServer answers pings and drops everything else.
func echoServer(ep *transport.Endpoint, site int) {
	for msg := range ep.Recv() {
		if req, ok := msg.Payload.(replica.PingReq); ok {
			_ = ep.Send(msg.From, replica.PingResp{ReqID: req.ReqID, Site: site})
		}
	}
}

func newPair(t *testing.T, timeout time.Duration) (*Caller, *transport.Network) {
	t.Helper()
	n := transport.NewNetwork(1, transport.NetConfig{})
	srv, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	go echoServer(srv, 1)
	cli, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(cli, timeout)
	t.Cleanup(func() {
		c.Close()
		n.Close()
	})
	return c, n
}

func TestCallRoundTrip(t *testing.T) {
	c, _ := newPair(t, time.Second)
	resp, err := c.Call(context.Background(), 1, replica.PingReq{})
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := resp.(replica.PingResp)
	if !ok || pong.Site != 1 {
		t.Errorf("resp = %#v", resp)
	}
}

func TestCallTimeout(t *testing.T) {
	c, _ := newPair(t, 30*time.Millisecond)
	// VersionReq is dropped by the echo server → timeout.
	_, err := c.Call(context.Background(), 1, replica.VersionReq{Key: "k"})
	if err == nil {
		t.Fatal("dropped request did not time out")
	}
}

func TestCallContextCancel(t *testing.T) {
	c, _ := newPair(t, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// VersionReq is never answered by the echo server.
		_, err := c.Call(ctx, 1, replica.VersionReq{Key: "k"})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call did not honor cancellation")
	}
}

func TestCallAfterClose(t *testing.T) {
	c, _ := newPair(t, time.Second)
	c.Close()
	c.Close() // idempotent
	if _, err := c.Call(context.Background(), 1, replica.PingReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCloseStopsServe: once Close returns, the caller no longer consumes its
// endpoint — a reply that arrives later stays readable on it.
func TestCloseStopsServe(t *testing.T) {
	n := transport.NewNetwork(1, transport.NetConfig{})
	defer n.Close()
	srv, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	NewCaller(cli, time.Second).Close()
	if err := srv.Send(-1, replica.PingResp{ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cli.Recv():
	case <-time.After(2 * time.Second):
		t.Error("a closed caller still took the message off its endpoint")
	}
}

func TestCallUnknownDestination(t *testing.T) {
	c, _ := newPair(t, time.Second)
	if _, err := c.Call(context.Background(), 99, replica.PingReq{}); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestFireAndForgetSend(t *testing.T) {
	c, _ := newPair(t, time.Second)
	if err := c.Send(1, replica.PingReq{}); err != nil {
		t.Errorf("Send: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c, _ := newPair(t, time.Second)
	const calls = 50
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.Call(context.Background(), 1, replica.PingReq{})
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReqIDOfAllTypes(t *testing.T) {
	tests := []struct {
		payload any
		want    uint64
	}{
		{replica.ReadResp{ReqID: 1}, 1},
		{replica.VersionResp{ReqID: 2}, 2},
		{replica.PrepareResp{ReqID: 3}, 3},
		{replica.CommitResp{ReqID: 4}, 4},
		{replica.AbortResp{ReqID: 5}, 5},
		{replica.PingResp{ReqID: 6}, 6},
	}
	for _, tt := range tests {
		id, ok := ReqIDOf(tt.payload)
		if !ok || id != tt.want {
			t.Errorf("ReqIDOf(%T) = %d,%v", tt.payload, id, ok)
		}
	}
	if _, ok := ReqIDOf(42); ok {
		t.Error("int payload produced a request ID")
	}
}

// TestSendHook: SetSendHook observes fire-and-forget sends (the repair-test
// synchronization point).
func TestSendHook(t *testing.T) {
	c, _ := newPair(t, time.Second)
	got := make(chan transport.Addr, 1)
	c.SetSendHook(func(to transport.Addr, payload any) { got <- to })
	if err := c.Send(1, replica.PingReq{ReqID: 99}); err != nil {
		t.Fatal(err)
	}
	select {
	case to := <-got:
		if to != 1 {
			t.Errorf("hook saw send to %d, want 1", to)
		}
	case <-time.After(time.Second):
		t.Fatal("send hook never fired")
	}
	c.SetSendHook(nil)
	if err := c.Send(1, replica.PingReq{ReqID: 100}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("hook fired after removal")
	default:
	}
}
