package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"arbor/internal/wire"
)

func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// ping builds a distinguishable protocol message; the codec's message set is
// closed, so tests speak real wire types.
func ping(n int) wire.PingReq { return wire.PingReq{ReqID: uint64(n)} }

func newTCPPair(t *testing.T) (*TCPNetwork, *TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, a, b
}

func recvOne(t *testing.T, ep *TCPEndpoint) Message {
	t.Helper()
	select {
	case msg := <-ep.Recv():
		return msg
	case <-time.After(2 * time.Second):
		t.Fatal("no message delivered")
		return Message{}
	}
}

func TestTCPSendReceive(t *testing.T) {
	_, a, b := newTCPPair(t)
	if err := a.Send(2, wire.ReadReq{ReqID: 7, Key: "hello"}); err != nil {
		t.Fatal(err)
	}
	msg := recvOne(t, b)
	if msg.From != 1 || msg.To != 2 {
		t.Errorf("envelope = %+v", msg)
	}
	p, ok := msg.Payload.(wire.ReadReq)
	if !ok || p.Key != "hello" || p.ReqID != 7 {
		t.Errorf("payload = %#v", msg.Payload)
	}
}

func TestTCPBidirectional(t *testing.T) {
	_, a, b := newTCPPair(t)
	if err := a.Send(2, ping(1)); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); got.Payload.(wire.PingReq).ReqID != 1 {
		t.Fatal("ping lost")
	}
	if err := b.Send(1, wire.PingResp{ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); got.Payload.(wire.PingResp).ReqID != 1 {
		t.Fatal("pong lost")
	}
}

func TestTCPManyMessagesReuseConnections(t *testing.T) {
	n, a, b := newTCPPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(2, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool, count)
	for i := 0; i < count; i++ {
		msg := recvOne(t, b)
		seen[msg.Payload.(wire.PingReq).ReqID] = true
	}
	if len(seen) != count {
		t.Errorf("received %d distinct messages, want %d", len(seen), count)
	}
	// The pool is bounded: many pipelined messages share the configured
	// number of connections instead of opening one per request.
	if conns := a.Conns(); conns > n.opts.connsPerPeer {
		t.Errorf("pooled %d connections, want at most %d", conns, n.opts.connsPerPeer)
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	_, a, _ := newTCPPair(t)
	if err := a.Send(99, ping(0)); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestTCPDuplicateRegister(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	if _, err := n.Register(5); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(5); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("err = %v, want ErrDuplicateAddr", err)
	}
	if _, err := n.Dial(5); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("dial err = %v, want ErrDuplicateAddr", err)
	}
}

func TestTCPCloseIsIdempotentAndStopsRegister(t *testing.T) {
	n := NewTCPNetwork()
	if _, err := n.Register(1); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	if _, err := n.Register(2); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

// TestTCPDialOnlyEndpointHearsReplies exercises the client shape: a
// dial-only endpoint (no listener) sends to a listener and receives the
// reply over the connection it opened, routed by the HELLO's address.
func TestTCPDialOnlyEndpointHearsReplies(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	srvConn, err := n.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	srv := srvConn.(*TCPEndpoint)
	cliConn, err := n.Dial(-3)
	if err != nil {
		t.Fatal(err)
	}
	cli := cliConn.(*TCPEndpoint)

	if err := cli.Send(7, ping(42)); err != nil {
		t.Fatal(err)
	}
	msg := recvOne(t, srv)
	if msg.From != -3 {
		t.Fatalf("server saw sender %d, want -3", msg.From)
	}
	if err := srv.Send(-3, wire.PingResp{ReqID: 42}); err != nil {
		t.Fatal(err)
	}
	reply := recvOne(t, cli)
	if reply.Payload.(wire.PingResp).ReqID != 42 {
		t.Fatalf("reply = %#v", reply.Payload)
	}
	// The reply must have reused the dialer's connection: the server never
	// dials back (the client has no listener), so its pool holds only
	// accepted connections.
	if srv.Conns() < 1 {
		t.Error("server pooled no connection for the reply route")
	}
}

// otherCodec is the binary codec under another name: what the HELLO
// handshake compares.
type otherCodec struct{ wire.Codec }

func (otherCodec) Name() string { return "other" }

func TestTCPCodecMismatchRefusesConnection(t *testing.T) {
	nBin := NewTCPNetwork()
	defer nBin.Close()
	srv, err := nBin.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	// A second registry speaking a codec of another name, sharing the
	// listener table by dialing the binary listener's port directly:
	// simulate by pointing the other network's lookup at the same endpoint
	// via a cross-registered address.
	nOther := NewTCPNetwork(WithTCPCodec(otherCodec{wire.Binary()}))
	defer nOther.Close()
	cli, err := nOther.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the binary listener into the other registry so Dial can route.
	nOther.mu.Lock()
	nOther.listeners[1] = srv
	nOther.mu.Unlock()

	cep := cli.(*TCPEndpoint)
	_ = cep.Send(1, ping(1)) // first write may succeed into OS buffers
	// The acceptor must refuse the handshake: nothing is delivered and the
	// mismatch surfaces as a dead connection on retry.
	select {
	case msg := <-srv.Recv():
		t.Fatalf("mismatched codec delivered %#v", msg.Payload)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestTCPSendAfterPeerGone(t *testing.T) {
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := a.Send(2, ping(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	// Kill b's side; a's pooled connections eventually break. Send may need
	// a few attempts before the OS surfaces the reset, but must not panic
	// or hang.
	b.close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, ping(1)); err != nil {
			return // surfaced the broken peer
		}
	}
	t.Log("sends kept succeeding into OS buffers; acceptable for a datagram-like API")
}

func TestTCPConcurrentSenders(t *testing.T) {
	_, a, b := newTCPPair(t)
	const (
		workers = 8
		each    = 50
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := a.Send(2, ping(w*each+i)); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers*each; i++ {
		recvOne(t, b)
	}
}

// TestTCPCloseStopsGoroutines guards against leaked accept/read loops.
func TestTCPCloseStopsGoroutines(t *testing.T) {
	baseline := countGoroutines()
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(2, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		recvOne(t, b)
	}
	n.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if countGoroutines() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, after close %d", baseline, countGoroutines())
}

// waitStats polls the endpoint's counters until ok accepts them.
func waitStats(t *testing.T, ep *TCPEndpoint, ok func(TCPStats) bool) TCPStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ep.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPStatsCountInboxDrop: one frame more than the delivery channel
// holds, with nobody receiving, moves InboxDrops by exactly one and no
// other drop counter.
func TestTCPStatsCountInboxDrop(t *testing.T) {
	_, a, b := newTCPPair(t)
	frames := uint64(cap(b.in) + 1)
	for i := uint64(0); i < frames; i++ {
		if err := a.Send(2, ping(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if out := a.Stats().FramesOut; out != frames {
		t.Errorf("sender FramesOut = %d, want %d", out, frames)
	}
	st := waitStats(t, b, func(st TCPStats) bool { return st.FramesIn == frames })
	if st.InboxDrops != 1 || st.DecodeDrops != 0 {
		t.Errorf("after %d frames into a %d-slot inbox: %+v, want exactly one inbox drop", frames, cap(b.in), st)
	}
	if len(b.in) != cap(b.in) {
		t.Errorf("inbox holds %d messages, want it full at %d", len(b.in), cap(b.in))
	}
}

// rawFrame frames already-encoded payload bytes the way Send does.
func rawFrame(from, to Addr, payload []byte) []byte {
	buf := []byte{0, 0, 0, 0}
	buf = binary.AppendVarint(buf, int64(from))
	buf = binary.AppendVarint(buf, int64(to))
	buf = append(buf, payload...)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// TestTCPStatsCountDecodeDrop: a well-framed payload the codec cannot
// decode moves DecodeDrops by exactly one, is not delivered, and leaves the
// connection serving the frames behind it.
func TestTCPStatsCountDecodeDrop(t *testing.T) {
	_, a, b := newTCPPair(t)
	c, err := net.Dial("tcp", b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := func(payload []byte) []byte { return rawFrame(a.addr, b.addr, payload) }
	good, err := b.net.opts.codec.Encode(nil, ping(9))
	if err != nil {
		t.Fatal(err)
	}
	raw := append(a.hello(), frame([]byte{0xff, 0xfe, 0xfd})...)
	raw = append(raw, frame(good)...)
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); got.Payload.(wire.PingReq).ReqID != 9 {
		t.Fatalf("frame behind the corrupt one = %#v", got.Payload)
	}
	if st := b.Stats(); st.FramesIn != 2 || st.DecodeDrops != 1 || st.InboxDrops != 0 {
		t.Errorf("stats = %+v, want 2 frames in, exactly one decode drop", st)
	}
}

// TestTCPFrameSizes pushes frames around the read buffer's size through one
// connection, pipelined in a single write: bodies of tcpReadBuf-1, tcpReadBuf
// (the largest decoded in place), tcpReadBuf+1 and 1 MiB (each read into a
// buffer of its own), small frames in between, and two 40000-byte frames back
// to back, the second of which is decoded over the reader bytes the first
// occupied. Every value is checked only after all frames were decoded, so a
// payload aliasing the reader would show as a corrupted earlier message. A
// last frame arrives one byte per write.
func TestTCPFrameSizes(t *testing.T) {
	_, a, b := newTCPPair(t)
	c, err := net.Dial("tcp", b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fill := func(id uint64, v []byte) []byte {
		for i := range v {
			v[i] = byte(id) + byte(i*7)
		}
		return v
	}
	// frame builds message id as a ReadResp whose frame body is bodyLen bytes.
	frame := func(id uint64, bodyLen int) []byte {
		var buf []byte
		for vlen := bodyLen - 32; ; vlen += bodyLen - (len(buf) - 4) {
			payload, err := b.net.opts.codec.Encode(nil, wire.ReadResp{ReqID: id, Key: "k", Value: fill(id, make([]byte, vlen)), Found: true})
			if err != nil {
				t.Fatal(err)
			}
			if buf = rawFrame(a.addr, b.addr, payload); len(buf)-4 == bodyLen {
				return buf
			}
		}
	}
	sizes := []int{64, tcpReadBuf - 1, 64, tcpReadBuf, tcpReadBuf + 1, 64, 1 << 20, 64, 40000, 40000, 64}
	raw := a.hello()
	for i, n := range sizes {
		raw = append(raw, frame(uint64(i+1), n)...)
	}
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	trickled := frame(uint64(len(sizes)+1), 300)
	for i := range trickled {
		if _, err := c.Write(trickled[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	msgs := make([]Message, len(sizes)+1)
	for i := range msgs {
		msgs[i] = recvOne(t, b)
	}
	for i, msg := range msgs {
		id := uint64(i + 1)
		p, ok := msg.Payload.(wire.ReadResp)
		if !ok || p.ReqID != id || msg.From != a.addr || msg.To != b.addr {
			t.Fatalf("message %d = %+v from %d to %d", id, msg.Payload, msg.From, msg.To)
		}
		if want := fill(id, make([]byte, len(p.Value))); !bytes.Equal(p.Value, want) {
			t.Errorf("message %d: its %d-byte value changed after later frames were decoded", id, len(p.Value))
		}
		if cap(p.Value) != len(p.Value) {
			t.Errorf("message %d: value of %d bytes sits in %d: not an exact-size copy", id, len(p.Value), cap(p.Value))
		}
	}
	if st := b.Stats(); st.FramesIn != uint64(len(msgs)) || st.DecodeDrops != 0 || st.InboxDrops != 0 {
		t.Errorf("stats = %+v, want %d frames in and no drops", st, len(msgs))
	}
}
