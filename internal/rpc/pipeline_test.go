package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// shuffleEchoServer answers ReadReqs over a TCP endpoint, batching requests
// and replying in shuffled order — the adversarial schedule for pipelined
// response matching. PingReqs are answered immediately and in order.
func shuffleEchoServer(ep *transport.TCPEndpoint, batch int, rng *rand.Rand) {
	pending := make([]transport.Message, 0, batch)
	flush := func() {
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		for _, msg := range pending {
			req := msg.Payload.(replica.ReadReq)
			_ = ep.Send(msg.From, replica.ReadResp{
				ReqID: req.ReqID,
				Key:   req.Key,
				Value: []byte(req.Key),
				Found: true,
			})
		}
		pending = pending[:0]
	}
	flushTick := time.NewTicker(5 * time.Millisecond)
	defer flushTick.Stop()
	for {
		select {
		case msg, ok := <-ep.Recv():
			if !ok {
				return
			}
			switch req := msg.Payload.(type) {
			case replica.ReadReq:
				pending = append(pending, msg)
				if len(pending) >= batch {
					flush()
				}
			case replica.PingReq:
				_ = ep.Send(msg.From, replica.PingResp{ReqID: req.ReqID, Site: 1})
			}
		case <-flushTick.C:
			flush()
		}
	}
}

// TestPipelinedCallsOverTCP drives many concurrent calls through the small
// fixed connection pool: responses come back batched and shuffled (out of
// order), some requests are cancelled mid-flight, and afterwards the same
// connections still serve — cancellation is per-request, never per-conn.
func TestPipelinedCallsOverTCP(t *testing.T) {
	n := transport.NewTCPNetwork()
	defer n.Close()
	srvConn, err := n.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := srvConn.(*transport.TCPEndpoint)
	go shuffleEchoServer(srv, 16, rand.New(rand.NewSource(7)))

	cliConn, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	cli := cliConn.(*transport.TCPEndpoint)
	c := NewCaller(cli, 5*time.Second)
	defer c.Close()

	const (
		inflight  = 200
		cancelled = 25 // the first N calls are cancelled mid-flight
	)
	ctx := context.Background()
	cancelCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			callCtx := ctx
			if i < cancelled {
				callCtx = cancelCtx
			}
			key := fmt.Sprintf("key-%d", i)
			resp, err := c.Call(callCtx, 1, replica.ReadReq{Key: key})
			if err != nil {
				errs[i] = err
				return
			}
			// Out-of-order matching must still pair each caller with its
			// own reply: the echoed key proves it.
			rr, ok := resp.(replica.ReadResp)
			if !ok || rr.Key != key || string(rr.Value) != key {
				errs[i] = fmt.Errorf("call %d got foreign reply %#v", i, resp)
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let some cancelled calls get in flight
	cancel()
	wg.Wait()

	for i, err := range errs {
		if i < cancelled {
			// A cancelled call may have won its race with cancel(); both
			// outcomes are fine, but no foreign replies and no timeouts.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled call %d: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}

	// 200 pipelined calls must share the small fixed pool, not a socket
	// per request.
	if dials := cli.Stats().Dials; dials == 0 || dials > 2 {
		t.Errorf("client dialed %d connections, want 1-2", dials)
	}

	// The connections survived the cancellations: a fresh call on the same
	// pool still round-trips.
	if _, err := c.Call(ctx, 1, replica.PingReq{}); err != nil {
		t.Errorf("call after cancellations: %v", err)
	}
}

// TestStartedReplyCarriesNoKey: over TCP a reply's key is a view of its
// frame, and the engine, which never reads it, gets a reply without one;
// the rest of the answer is its own.
func TestStartedReplyCarriesNoKey(t *testing.T) {
	n := transport.NewTCPNetwork()
	defer n.Close()
	srv, err := n.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	go shuffleEchoServer(srv.(*transport.TCPEndpoint), 1, rand.New(rand.NewSource(7)))
	cli, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(cli, 5*time.Second)
	defer c.Close()

	inbox := make(chan Reply, 1)
	p, fail := c.Start(context.Background(), 1, replica.ReadReq{Key: "user/42"}, inbox, 3)
	if fail != nil {
		t.Fatal(fail.Err)
	}
	r := <-inbox
	if err := c.Answered(p, &r.Resp); err != nil {
		t.Fatal(err)
	}
	if got := r.Resp.ReadResp; r.Tag != 3 || got.Key != "" || string(got.Value) != "user/42" || !got.Found {
		t.Errorf("started read answered %#v (tag %d), want no key and the value echoed", got, r.Tag)
	}
}
