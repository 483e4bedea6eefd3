package transport

import (
	"net"
	"testing"
	"time"

	"arbor/internal/wire"
)

// TestSendRetainsNothingOverTCP: Send on a *TCPEndpoint encodes the payload
// in place, so a literal handed to it — a reply, or a request with its
// stamp — allocates nothing at all once the connections are up. The peer is
// a bare listener that never reads, so no decode on the far side is counted.
func TestSendRetainsNothingOverTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame buffer pool drops buffers at random under -race")
	}
	n := NewTCPNetwork()
	t.Cleanup(n.Close)
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.mu.Lock()
	n.listeners[2] = &TCPEndpoint{ln: ln}
	n.mu.Unlock()
	accepted := make(chan net.Conn, defaultConnsPerPeer)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	// Fill the route: the first sends dial.
	for i := 0; i < defaultConnsPerPeer; i++ {
		if err := Send(a, 2, wire.PingResp{ReqID: 1}, wire.Stamp{}); err != nil {
			t.Fatal(err)
		}
		select {
		case c := <-accepted:
			defer c.Close()
		case <-time.After(2 * time.Second):
			t.Fatal("no connection accepted")
		}
	}
	// What a payload points to may escape (the copy for other Conns shares
	// it); only the payload's own box must not.
	value := []byte("v")
	allocs := testing.AllocsPerRun(100, func() {
		if err := Send(a, 2, wire.ReadResp{ReqID: 9, Key: "k", Value: value, Found: true}, wire.Stamp{}); err != nil {
			t.Fatal(err)
		}
		if err := Send(a, 2, wire.ReadReq{Key: "k"}, wire.Stamp{ReqID: 10, DeadlineMillis: 250}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Send over TCP allocates %.1f times per reply and request, want 0", allocs)
	}
}

// TestSendHandsOtherConnsAStampedCopy: a Conn that keeps its payload gets
// the stamped copy wire.Stamped makes, and a payload outside the message
// set is refused before it reaches the Conn.
func TestSendHandsOtherConnsAStampedCopy(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	if err := Send(a, 2, wire.ReadReq{Key: "k", DeadlineMillis: 3}, wire.Stamp{ReqID: 7}); err != nil {
		t.Fatal(err)
	}
	if got, want := (<-b.Recv()).Payload, (wire.ReadReq{ReqID: 7, Key: "k", DeadlineMillis: 3}); got != want {
		t.Errorf("delivered %#v, want %#v", got, want)
	}
	if err := Send(a, 2, "not a message", wire.Stamp{}); err == nil {
		t.Error("Send accepted a payload outside the message set")
	}
	if st := n.Stats(); st.Sent != 1 {
		t.Errorf("network saw %d sends, want 1", st.Sent)
	}
}
