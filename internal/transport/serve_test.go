package transport

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arbor/internal/wire"
)

// recvOnlyConn is a foreign Conn: nothing but a channel behind Recv.
type recvOnlyConn struct{ in chan Message }

func (c *recvOnlyConn) Addr() Addr           { return 9 }
func (c *recvOnlyConn) Send(Addr, any) error { return nil }
func (c *recvOnlyConn) Recv() <-chan Message { return c.in }
func pingID(m Message) uint64                { return m.Payload.(wire.PingReq).ReqID }

// boxing adapts a handler of boxed messages, the shape these tests inspect.
func boxing(h func(Message)) Handler {
	return func(from Addr, m *wire.Msg) { h(Message{From: from, Payload: m.Box()}) }
}
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// newServedPair is a TCP sender (address 1) and receiver (address 2) joined
// by exactly one connection, so "in order" has one meaning.
func newServedPair(t *testing.T) (send, recv *TCPEndpoint) {
	t.Helper()
	n := NewTCPNetwork(WithConnsPerPeer(1))
	t.Cleanup(n.Close)
	recv, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	send, err = n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	return send, recv
}

// TestServe pins what transport.Serve promises its consumers. Every case
// synchronises on channels; none sleeps.
func TestServe(t *testing.T) {
	t.Run("tcp handler runs on the read loop, frames in order", func(t *testing.T) {
		a, b := newServedPair(t)
		const frames = 10000
		var (
			got   []uint64
			stack string
			done  = make(chan struct{})
		)
		stop := Serve(b, boxing(func(m Message) {
			if len(got) == 0 {
				buf := make([]byte, 4096)
				stack = string(buf[:runtime.Stack(buf, false)])
			}
			got = append(got, pingID(m))
			if len(got) == frames {
				close(done)
			}
		}))
		defer stop()
		for i := 0; i < frames; i++ {
			if err := a.Send(2, ping(i)); err != nil {
				t.Fatal(err)
			}
		}
		within(t, done, "10,000 frames")
		for i, id := range got {
			if id != uint64(i) {
				t.Fatalf("frame %d carried id %d: per-connection order broken", i, id)
			}
		}
		if !strings.Contains(stack, "(*TCPEndpoint).readLoop") {
			t.Errorf("handler did not run on a read loop:\n%s", stack)
		}
		if drops := b.Stats().InboxDrops; drops != 0 {
			t.Errorf("served endpoint dropped %d messages at its inbox", drops)
		}
	})

	t.Run("endpoints served before any traffic make no inbox", func(t *testing.T) {
		a, b := newServedPair(t)
		pong := make(chan struct{})
		defer Serve(a, boxing(func(Message) { close(pong) }))()
		defer Serve(b, boxing(func(m Message) {
			if err := b.Send(m.From, wire.PingResp{ReqID: pingID(m)}); err != nil {
				t.Error(err)
			}
		}))()
		if err := a.Send(2, ping(1)); err != nil {
			t.Fatal(err)
		}
		within(t, pong, "the reply")
		if a.in.Load() != nil || b.in.Load() != nil {
			t.Error("a served endpoint made an inbox")
		}
	})

	t.Run("backlog queued before Serve is delivered first", func(t *testing.T) {
		_, b := newServedPair(t)
		for i := 0; i < 3; i++ {
			b.inbox() <- Message{From: 1, To: 2, Payload: ping(i)}
		}
		var got []uint64
		stop := Serve(b, boxing(func(m Message) { got = append(got, pingID(m)) }))
		defer stop()
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("backlog reached the handler as %v, want [0 1 2] before Serve returns", got)
		}
	})

	t.Run("Serve racing a sender strands and reorders nothing", func(t *testing.T) {
		a, b := newServedPair(t)
		const frames = 1000 // under the inbox capacity: nothing may be dropped while unserved
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				if err := a.Send(2, ping(i)); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		// Let the read loop queue at least one frame the old way first.
		first := recvOne(t, b)
		if pingID(first) != 0 {
			t.Fatalf("first frame carried id %d", pingID(first))
		}
		next, done := uint64(1), make(chan struct{})
		var bad atomic.Int64
		stop := Serve(b, boxing(func(m Message) {
			if pingID(m) != next {
				bad.Add(1)
			}
			if next++; next == frames {
				close(done)
			}
		}))
		defer stop()
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		within(t, done, "every frame")
		if bad.Load() != 0 {
			t.Errorf("%d frames arrived out of order across the switch to Serve", bad.Load())
		}
	})

	t.Run("stop waits for the handler in flight, then nothing is handled", func(t *testing.T) {
		a, b := newServedPair(t)
		entered, release := make(chan struct{}), make(chan struct{})
		var handled atomic.Int64
		stop := Serve(b, boxing(func(Message) {
			handled.Add(1)
			close(entered)
			<-release
		}))
		if err := a.Send(2, ping(1)); err != nil {
			t.Fatal(err)
		}
		within(t, entered, "the handler to start")
		stopped := make(chan struct{})
		go func() {
			stop()
			close(stopped)
		}()
		select {
		case <-stopped:
			t.Fatal("stop returned while the handler was still running")
		default:
		}
		close(release)
		within(t, stopped, "stop")
		stop() // a second stop is harmless
		if err := a.Send(2, ping(2)); err != nil {
			t.Fatal(err)
		}
		if m := recvOne(t, b); pingID(m) != 2 {
			t.Errorf("Recv after stop carried id %d, want 2", pingID(m))
		}
		if n := handled.Load(); n != 1 {
			t.Errorf("handler ran %d times, want 1", n)
		}
	})

	t.Run("a Recv-only Conn is pumped until stop", func(t *testing.T) {
		c := &recvOnlyConn{in: make(chan Message, 4)}
		c.in <- Message{Payload: ping(0)} // queued before Serve
		got := make(chan uint64, 4)
		stop := Serve(c, boxing(func(m Message) { got <- pingID(m) }))
		c.in <- Message{Payload: ping(1)}
		for want := uint64(0); want < 2; want++ {
			select {
			case id := <-got:
				if id != want {
					t.Fatalf("pump delivered id %d, want %d", id, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("pump delivered nothing")
			}
		}
		stop()
		stop()
		c.in <- Message{Payload: ping(2)}
		select {
		case m := <-c.in: // the pump is gone: the message is still ours
			if pingID(m) != 2 {
				t.Errorf("read back id %d", pingID(m))
			}
		case id := <-got:
			t.Errorf("pump handled id %d after stop", id)
		}
	})

	t.Run("a parked handler stalls only its own connection", func(t *testing.T) {
		n := NewTCPNetwork(WithConnsPerPeer(1))
		t.Cleanup(n.Close)
		b, err := n.Register(2)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := n.Dial(-1)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := n.Dial(-2)
		if err != nil {
			t.Fatal(err)
		}
		parked, release, passed := make(chan struct{}), make(chan struct{}), make(chan struct{})
		stop := Serve(b, boxing(func(m Message) {
			if m.From == -1 {
				close(parked)
				<-release
				return
			}
			close(passed)
		}))
		if err := slow.Send(2, ping(1)); err != nil {
			t.Fatal(err)
		}
		within(t, parked, "the slow connection's handler to park")
		if err := fast.Send(2, ping(2)); err != nil {
			t.Fatal(err)
		}
		within(t, passed, "the other connection's frame to be handled past the parked one")
		close(release)
		stop()
	})

	t.Run("delivery to the handler allocates nothing", func(t *testing.T) {
		_, b := newServedPair(t)
		var n int
		stop := Serve(b, func(Addr, *wire.Msg) { n++ })
		defer stop()
		// A keyed request: its key is decoded as a view of the body.
		body, err := wire.Append(nil, wire.ReadReq{ReqID: 1, Key: "user/42"}, wire.Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		var m wire.Msg
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := b.deliver(1, 2, body, &m); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("deliver allocates %.1f objects per message, want 0", allocs)
		}
	})
}
