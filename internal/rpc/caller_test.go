package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// echoServer answers pings and drops everything else, until stop is
// closed.
func echoServer(ep *transport.Endpoint, site int, stop <-chan struct{}) {
	for {
		select {
		case msg := <-ep.Recv():
			if req, ok := msg.Payload.(replica.PingReq); ok {
				_ = ep.Send(msg.From, replica.PingResp{ReqID: req.ReqID, Site: site})
			}
		case <-stop:
			return
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
	stop := make(chan struct{})
	go echoServer(srv, 1, stop)
	cli, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(cli, timeout)
	t.Cleanup(func() {
		c.Close()
		n.Close()
		close(stop)
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

// TestStartFailureKinds: a start that sends nothing says which way it
// failed, with the error that names the cause.
func TestStartFailureKinds(t *testing.T) {
	c, _ := newPair(t, time.Second)
	spent, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	inbox := make(chan Reply, 1)
	check := func(name string, ctx context.Context, to transport.Addr, want StartKind, cause error) {
		t.Helper()
		_, fail := c.Start(ctx, to, replica.PingReq{}, inbox, 0)
		switch {
		case fail == nil:
			t.Errorf("%s: start succeeded", name)
		case fail.Kind != want || fail.Err == nil || cause != nil && !errors.Is(fail.Err, cause):
			t.Errorf("%s: kind %d, err %v; want kind %d caused by %v", name, fail.Kind, fail.Err, want, cause)
		}
	}
	check("spent deadline", spent, 1, StartDeadlineSpent, context.DeadlineExceeded)
	check("unknown destination", context.Background(), 99, StartSendFailed, nil)
	c.Close()
	check("closed caller", context.Background(), 1, StartClosed, ErrClosed)
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
