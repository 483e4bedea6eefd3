package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"arbor/internal/wire"
)

// pooled counts the live connections the endpoint pools across all peers.
func pooled(e *TCPEndpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, r := range e.routes {
		total += len(r.conns)
	}
	return total
}

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

// TestTCPRecvKeysOwned: an endpoint nobody serves hands Recv messages it
// owns, keys included, so each received message keeps its key after the
// frames behind it have gone through the same read buffer.
func TestTCPRecvKeysOwned(t *testing.T) {
	_, a, b := newTCPPair(t)
	ts := wire.Timestamp{Version: 2, Site: -1}
	sent := []any{
		wire.VersionReq{ReqID: 1, Key: "user/α-01"},
		wire.VersionResp{ReqID: 2, Key: "user/β-02", TS: ts, Found: true},
		wire.ReadReq{ReqID: 3, Key: "user/γ-03"},
		wire.ReadResp{ReqID: 4, Key: "user/δ-04", Value: []byte("v"), TS: ts, Found: true},
		wire.PrepareReq{ReqID: 5, TxID: 9, Key: "user/ε-05", TS: ts},
		wire.CommitReq{ReqID: 6, TxID: 9, Key: "user/ζ-06", Value: []byte("v"), TS: ts},
		wire.AbortReq{ReqID: 7, TxID: 9, Key: "user/η-07"},
	}
	var got []any
	for _, m := range sent {
		if err := a.Send(2, m); err != nil {
			t.Fatal(err)
		}
		got = append(got, recvOne(t, b).Payload)
	}
	for i := range sent {
		if !reflect.DeepEqual(got[i], sent[i]) {
			t.Errorf("received %#v, want %#v", got[i], sent[i])
		}
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
	if conns := pooled(a); conns > n.connsPerPeer {
		t.Errorf("pooled %d connections, want at most %d", conns, n.connsPerPeer)
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
	if pooled(srv) < 1 {
		t.Error("server pooled no connection for the reply route")
	}
}

// TestTCPHelloVersionMismatchRefusesConnection: a HELLO carrying another
// wire version is refused — the connection is closed and no frame behind it
// is delivered — while the same bytes under this end's version are accepted.
func TestTCPHelloVersionMismatchRefusesConnection(t *testing.T) {
	_, a, b := newTCPPair(t)
	req, err := wire.Append(nil, ping(1), wire.Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(version byte) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", b.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		hello := a.hello()
		hello[4+len(helloMagic)] = version
		if _, err := c.Write(append(hello, rawFrame(a.addr, b.addr, req)...)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	other := dial(wire.Version + 1)
	defer other.Close()
	_ = other.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := other.Read(make([]byte, 1)); err == nil {
		t.Fatalf("a hello of version %d was answered with %d bytes", wire.Version+1, n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a hello of another version left the connection open")
	}
	select {
	case msg := <-b.Recv():
		t.Fatalf("a frame behind a mismatched hello was delivered: %#v", msg.Payload)
	default:
	}
	same := dial(wire.Version)
	defer same.Close()
	if got := recvOne(t, b); got.Payload.(wire.PingReq).ReqID != 1 {
		t.Fatalf("frame behind a matching hello = %#v", got.Payload)
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
	in := b.inbox()
	frames := uint64(cap(in) + 1)
	for i := uint64(0); i < frames; i++ {
		if err := a.Send(2, ping(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if out := a.Stats().FramesOut; out != frames {
		t.Errorf("sender FramesOut = %d, want %d", out, frames)
	}
	// A frame is counted in before it is delivered or dropped: wait for both.
	st := waitStats(t, b, func(st TCPStats) bool {
		return st.FramesIn == frames && uint64(len(in))+st.InboxDrops+st.DecodeDrops == frames
	})
	if st.InboxDrops != 1 || st.DecodeDrops != 0 {
		t.Errorf("after %d frames into a %d-slot inbox: %+v, want exactly one inbox drop", frames, cap(in), st)
	}
	if len(in) != cap(in) {
		t.Errorf("inbox holds %d messages, want it full at %d", len(in), cap(in))
	}
}

// TestTCPStatsCountDialsAndEvictions: a warm route has dialed connsPerPeer
// connections; each one that breaks is evicted exactly once on each side and
// dialed again by the next sends; closing the network evicts nothing.
func TestTCPStatsCountDialsAndEvictions(t *testing.T) {
	n, a, b := newTCPPair(t)
	per := uint64(n.connsPerPeer)
	warm := func() {
		t.Helper()
		for i := 0; i < 4*int(per); i++ {
			if err := a.Send(2, ping(i)); err != nil {
				t.Fatal(err)
			}
			recvOne(t, b)
		}
	}
	warm()
	if st := a.Stats(); st.Dials != per || st.Evictions != 0 {
		t.Fatalf("warm dialer: %+v, want %d dials and no eviction", st, per)
	}
	if st := b.Stats(); st.Dials != 0 || st.Evictions != 0 {
		t.Fatalf("warm listener: %+v, want no dial and no eviction", st)
	}

	a.mu.Lock()
	broken := append([]*wireConn(nil), a.routes[2].conns...)
	a.mu.Unlock()
	for _, wc := range broken {
		wc.shutdown()
	}
	waitStats(t, a, func(st TCPStats) bool { return st.Evictions >= per })
	waitStats(t, b, func(st TCPStats) bool { return st.Evictions >= per })
	warm()
	if st := a.Stats(); st.Dials != 2*per || st.Evictions != per {
		t.Errorf("dialer after %d broken connections: %+v, want %d dials and %d evictions", per, st, 2*per, per)
	}
	if st := b.Stats(); st.Dials != 0 || st.Evictions != per {
		t.Errorf("listener after %d broken connections: %+v, want %d evictions", per, st, per)
	}

	// An endpoint's own close evicts nothing there; its peer, still open,
	// evicts the connections that ended.
	a.close()
	waitStats(t, b, func(st TCPStats) bool { return st.Evictions >= 2*per })
	if ea, eb := a.Stats().Evictions, b.Stats().Evictions; ea != per || eb != 2*per {
		t.Errorf("evictions after the dialer closed: %d and %d, want %d and %d", ea, eb, per, 2*per)
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
	good, err := wire.Append(nil, ping(9), wire.Stamp{})
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
			payload, err := wire.Append(nil, wire.ReadResp{ReqID: id, Key: "k", Value: fill(id, make([]byte, vlen)), Found: true}, wire.Stamp{})
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

// TestTCPNoLostWakeup streams 20 000 frames on each of 8 connections at
// once, bodies from 1 B to three read buffers, each stream written in random
// chunks — single bytes, a few KiB, several frames at a time — with yields
// and pauses of up to 50 µs between writes. Reads end mid-header, mid-body
// and on frame boundaries, and bytes arrive while the read loop handles the
// last ones. A loop that parks on a socket holding data (a lost edge) stalls
// its connection, and the deadline turns the stall into a failure.
func TestTCPNoLostWakeup(t *testing.T) {
	const (
		conns  = 8
		frames = 20000
	)
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	n := NewTCPNetwork()
	t.Cleanup(n.Close)
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	// Frame i of a stream carries a ReadResp with ReqID i whose value is
	// pat[i%4096:][:size], size drawn by a per-stream generator the receiver
	// replays.
	pat := make([]byte, 3*tcpReadBuf+4096)
	rand.New(rand.NewSource(seed)).Read(pat)
	sizeGen := func(c int) func() int {
		r := rand.New(rand.NewSource(seed + int64(c)))
		return func() int {
			switch r.Intn(64) {
			case 0:
				return 1 + r.Intn(3*tcpReadBuf)
			case 1, 2, 3, 4, 5, 6, 7, 8:
				return 1 + r.Intn(4096)
			default:
				return 1 + r.Intn(128)
			}
		}
	}
	value := func(id uint64, size int) []byte { return pat[id%4096:][:size] }

	type stream struct {
		next atomic.Uint64
		size func() int
		done chan struct{}
	}
	streams := make([]stream, conns)
	for c := range streams {
		streams[c].size, streams[c].done = sizeGen(c), make(chan struct{})
	}
	stop := Serve(b, boxing(func(m Message) {
		s := &streams[-int(m.From)-1] // only this stream's read loop touches s
		id := s.next.Load()
		p, ok := m.Payload.(wire.ReadResp)
		if size := s.size(); !ok || p.ReqID != id || !bytes.Equal(p.Value, value(id, size)) {
			t.Errorf("stream %d, frame %d: got %T id %d with %d bytes, want %d bytes", -m.From, id, m.Payload, p.ReqID, len(p.Value), size)
		}
		if s.next.Add(1) == frames {
			close(s.done)
		}
	}))
	defer stop()

	var senders sync.WaitGroup
	defer senders.Wait()
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", b.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close() // before senders.Wait: unblocks a sender of a stalled stream
		from := Addr(-c - 1)
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			size, r := sizeGen(c), rand.New(rand.NewSource(seed^int64(c+1)<<32))
			pending := (&TCPEndpoint{addr: from, net: n}).hello()
			var id uint64
			frame := func() {
				payload, err := wire.Append(nil, wire.ReadResp{ReqID: id, Value: value(id, size()), Found: true}, wire.Stamp{})
				if err != nil {
					t.Error(err)
				}
				pending = append(pending, rawFrame(from, b.addr, payload)...)
				id++
			}
			for id < frames || len(pending) > 0 {
				var chunk int
				switch r.Intn(8) {
				case 0: // a run of single bytes
					chunk = 1
				case 1, 2:
					chunk = 1 + r.Intn(64)
				case 3, 4, 5:
					chunk = 1 + r.Intn(8192)
				default: // several whole frames in one write
					for k := 2 + r.Intn(6); k > 0 && id < frames; k-- {
						frame()
					}
					chunk = len(pending)
				}
				for len(pending) < chunk && id < frames {
					frame()
				}
				chunk = min(chunk, len(pending))
				for k := 1 + r.Intn(8); chunk == 1 && k > 1 && len(pending) > 1; k-- {
					if _, err := conn.Write(pending[:1]); err != nil {
						t.Error(err)
						return
					}
					pending = pending[1:]
				}
				if _, err := conn.Write(pending[:chunk]); err != nil {
					t.Error(err)
					return
				}
				pending = append(pending[:0], pending[chunk:]...)
				switch r.Intn(4) {
				case 0:
					runtime.Gosched()
				case 1:
					time.Sleep(time.Duration(r.Intn(51)) * time.Microsecond)
				}
			}
		}(c)
	}
	deadline := time.After(20 * time.Second)
	for c := range streams {
		select {
		case <-streams[c].done:
		case <-deadline:
			got := make([]uint64, conns)
			for i := range streams {
				got[i] = streams[i].next.Load()
			}
			t.Fatalf("stalled: frames delivered per stream %v of %d", got, frames)
		}
	}
	if st := b.Stats(); st.FramesIn != conns*frames || st.DecodeDrops != 0 || st.InboxDrops != 0 {
		t.Errorf("stats = %+v, want %d frames in and no drops", st, conns*frames)
	}
}

// TestTCPPartialFrameKeepsItsBuffer: one connection's frames arrive a byte
// per write, so its read loop parks mid-header and mid-body with those bytes
// in its buffer, while 8 other connections stream frames of up to half a
// buffer, in chunks of up to 8 KiB, through the same pool of buffers. A loop
// that gave its buffer back with bytes pending would resume on a buffer
// another loop had written over: a frame would arrive corrupted, or the
// connection would end.
func TestTCPPartialFrameKeepsItsBuffer(t *testing.T) {
	const (
		streamers = 8
		trickled  = 40 // frames on connection 0
	)
	n := NewTCPNetwork()
	t.Cleanup(n.Close)
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	// Frame id of connection c carries a ReadResp with ReqID id and a value
	// cut from pat by both; the trickled frames are small.
	pat := make([]byte, tcpReadBuf/2+4096)
	rand.New(rand.NewSource(1)).Read(pat)
	value := func(c int, id uint64) []byte {
		size := 1 + int(id*7919%(tcpReadBuf/2))
		if c == 0 {
			size = 1 + int(id*13%100)
		}
		return pat[(uint64(c)*131+id)%4096:][:size]
	}
	next := make([]atomic.Uint64, streamers+1)
	defer Serve(b, boxing(func(m Message) {
		c := -int(m.From) - 1
		id := next[c].Load() // only connection c's read loop moves next[c]
		if p, ok := m.Payload.(wire.ReadResp); !ok || p.ReqID != id || !bytes.Equal(p.Value, value(c, id)) {
			t.Errorf("connection %d, frame %d: got %T id %d with %d bytes, want %d bytes", c, id, m.Payload, p.ReqID, len(p.Value), len(value(c, id)))
		}
		next[c].Add(1)
	}))()

	var (
		trickling atomic.Bool
		senders   sync.WaitGroup
		sent      = make([]uint64, streamers+1)
	)
	trickling.Store(true)
	for c := 0; c <= streamers; c++ {
		conn, err := net.Dial("tcp", b.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			from := Addr(-c - 1)
			pending := (&TCPEndpoint{addr: from, net: n}).hello()
			frame := func(id uint64) {
				payload, err := wire.Append(nil, wire.ReadResp{ReqID: id, Value: value(c, id), Found: true}, wire.Stamp{})
				if err != nil {
					t.Error(err)
				}
				pending = append(pending, rawFrame(from, b.addr, payload)...)
			}
			write := func(p []byte) bool {
				if _, err := conn.Write(p); err != nil {
					t.Errorf("connection %d: %v", c, err)
					return false
				}
				return true
			}
			if c == 0 {
				defer trickling.Store(false)
				for id := uint64(0); id < trickled; id++ {
					frame(id)
				}
				for i := range pending {
					if !write(pending[i : i+1]) {
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
				sent[c] = trickled
				return
			}
			r := rand.New(rand.NewSource(int64(c)))
			for ; trickling.Load(); sent[c]++ {
				frame(sent[c])
				for p := pending; len(p) > 0; {
					chunk := min(1+r.Intn(8192), len(p))
					if !write(p[:chunk]) {
						return
					}
					p = p[chunk:]
				}
				pending = pending[:0]
				runtime.Gosched()
			}
		}(c)
	}
	senders.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for c := range next {
		for next[c].Load() < sent[c] {
			if time.Now().After(deadline) {
				t.Fatalf("connection %d: %d of %d frames delivered", c, next[c].Load(), sent[c])
			}
			time.Sleep(time.Millisecond)
		}
	}
	if sent[0] != trickled {
		t.Errorf("%d of %d trickled frames were written", sent[0], trickled)
	}
}

// TestTCPIdleConnsHoldNoBuffers: 64 dial-only endpoints each exchange one
// frame with a served listener and go idle. The read loops at both ends of
// their connections then hold no read buffer, and no endpoint an inbox: the
// heap stays within 1 MiB of what it was before they dialed, where a buffer
// per loop would add 128 × 64 KiB.
func TestTCPIdleConnsHoldNoBuffers(t *testing.T) {
	const clients = 64
	n := NewTCPNetwork()
	t.Cleanup(n.Close)
	srv, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	defer Serve(srv, boxing(func(m Message) {
		if err := srv.Send(m.From, wire.PingResp{ReqID: pingID(m)}); err != nil {
			t.Error(err)
		}
	}))()
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second drops what the pools kept over the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	pongs := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		cli, err := n.Dial(Addr(-1 - i))
		if err != nil {
			t.Fatal(err)
		}
		defer Serve(cli, boxing(func(Message) { pongs <- struct{}{} }))()
		if err := cli.Send(1, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < clients; i++ {
		within(t, pongs, "every reply")
	}
	// The last loops to deliver may not have parked yet: give them a moment.
	grew := heap() - before
	for deadline := time.Now().Add(time.Second); grew >= 1<<20 && time.Now().Before(deadline); grew = heap() - before {
		time.Sleep(10 * time.Millisecond)
	}
	if grew >= 1<<20 {
		t.Errorf("%d idle connections grew the heap by %d KiB, want under 1024 KiB", clients, grew>>10)
	}
	t.Logf("%d idle connections: heap %+d KiB", clients, grew>>10)
}

// TestTCPReadsPerFrame: over sequential ping-pongs the served endpoint's
// read loops make one read(2) per frame. A loop that reads on until EAGAIN
// before it parks makes two.
func TestTCPReadsPerFrame(t *testing.T) {
	n := NewTCPNetwork()
	t.Cleanup(n.Close)
	srv, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	cliConn, err := n.Dial(-1)
	if err != nil {
		t.Fatal(err)
	}
	cli := cliConn.(*TCPEndpoint)
	stopSrv := Serve(srv, boxing(func(m Message) {
		if err := srv.Send(m.From, wire.PingResp{ReqID: pingID(m)}); err != nil {
			t.Error(err)
		}
	}))
	defer stopSrv()
	pongs := make(chan uint64, 1)
	stopCli := Serve(cli, boxing(func(m Message) { pongs <- m.Payload.(wire.PingResp).ReqID }))
	defer stopCli()
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		if err := cli.Send(2, ping(i)); err != nil {
			t.Fatal(err)
		}
		select {
		case id := <-pongs:
			if id != uint64(i) {
				t.Fatalf("pong %d answered ping %d", id, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no pong for ping %d", i)
		}
	}
	st := srv.Stats()
	if st.FramesIn != rounds || st.Reads > st.FramesIn+st.FramesIn/20+2 {
		t.Errorf("%d read(2) calls for %d frames in, want at most %d", st.Reads, st.FramesIn, st.FramesIn+st.FramesIn/20+2)
	}
	t.Logf("%d reads for %d frames (%.3f per frame)", st.Reads, st.FramesIn, float64(st.Reads)/float64(st.FramesIn))
}

// TestTCPEviction pins the close rule: handlers run while their read loop
// holds the connection's read lock and closing a connection waits for that
// lock, so eviction and Close shut connections down and leave closing to
// each connection's own read loop.
func TestTCPEviction(t *testing.T) {
	t.Run("a failed reply evicts the handler's own connection", func(t *testing.T) {
		n := NewTCPNetwork()
		t.Cleanup(n.Close)
		srv, err := n.Register(2)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := n.Dial(-1)
		if err != nil {
			t.Fatal(err)
		}
		replied := make(chan error, 1)
		stop := Serve(srv, boxing(func(m Message) {
			srv.mu.Lock()
			own := srv.routes[m.From].conns[0] // the client's only connection: the one this handler runs on
			srv.mu.Unlock()
			_ = own.c.CloseWrite() // so the reply's write fails
			replied <- srv.Send(m.From, wire.PingResp{ReqID: pingID(m)})
		}))
		defer stop()
		if err := cli.Send(2, ping(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-replied:
			if err == nil {
				t.Error("a reply over a shut connection succeeded")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the handler never returned from a Send that evicts its own connection")
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			srv.mu.Lock()
			live, pooled := len(srv.live), len(srv.routes[-1].conns)
			srv.mu.Unlock()
			if live == 0 && pooled == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("evicted connection still pooled (%d) or its read loop still running (%d)", pooled, live)
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("Close returns while a handler is blocked writing", func(t *testing.T) {
		n := NewTCPNetwork()
		srv, err := n.Register(2)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := net.Dial("tcp", srv.ln.Addr().String()) // sends one request, never reads
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		entered, sendErr := make(chan struct{}), make(chan error, 1)
		stop := Serve(srv, boxing(func(m Message) {
			close(entered)
			big := wire.ReadResp{ReqID: 1, Value: make([]byte, tcpReadBuf), Found: true}
			for {
				if err := srv.Send(m.From, big); err != nil {
					sendErr <- err
					return
				}
			}
		}))
		defer stop()
		req, err := wire.Append(nil, ping(1), wire.Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Write(append((&TCPEndpoint{addr: -7, net: n}).hello(), rawFrame(-7, 2, req)...)); err != nil {
			t.Fatal(err)
		}
		within(t, entered, "the handler to start")
		// The socket buffers fill: wait until the writes stop moving.
		for last, still := srv.Stats().FramesOut, 0; still < 5; {
			time.Sleep(5 * time.Millisecond)
			if now := srv.Stats().FramesOut; now != last {
				last, still = now, 0
			} else {
				still++
			}
		}
		closed := make(chan struct{})
		go func() {
			n.Close()
			close(closed)
		}()
		within(t, closed, "Close with a handler blocked writing")
		select {
		case <-sendErr:
		default:
			t.Error("the blocked Send did not fail")
		}
	})
}

// TestTCPSilentPeerDoesNotHangClose: a connection that never sends its
// HELLO — a health probe, a port scan — is shut down by Close like a
// pooled one.
func TestTCPSilentPeerDoesNotHangClose(t *testing.T) {
	n := NewTCPNetwork()
	srv, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for accepted := false; !accepted; {
		srv.mu.Lock()
		accepted = len(srv.live) == 1
		srv.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1s on a peer that never spoke")
	}
}

// failingListener fails every Accept, as with EMFILE, until it is closed.
type failingListener struct {
	calls  atomic.Int64
	closed atomic.Bool
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
}
func (l *failingListener) Close() error   { l.closed.Store(true); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestTCPAcceptBackoff: a listener whose Accept keeps failing is retried on a
// doubling back-off from 5 ms, not in a loop that spins a core, and the
// accept loop still exits once the listener is closed.
func TestTCPAcceptBackoff(t *testing.T) {
	ln := &failingListener{}
	e := NewTCPNetwork().newEndpoint(1)
	e.ln = ln
	e.done.Add(1)
	go e.acceptLoop()
	time.Sleep(50 * time.Millisecond)
	if calls := ln.calls.Load(); calls > 10 {
		t.Errorf("Accept called %d times in 50ms of failures, want at most 10", calls)
	}
	closed := make(chan struct{})
	go func() {
		e.close()
		close(closed)
	}()
	within(t, closed, "the accept loop to exit on a closed listener")
}

// TestTCPShutdownBeforeReadLoop: a connection shut down before its read loop
// first reads — the peer's bytes already queued, so that read returns data,
// not EOF, and no packet is left in flight to raise a later readiness edge —
// still ends its loop instead of parking for good. This is how TCPNetwork.Close
// hung when it shut down a connection its acceptor had only just started.
func TestTCPShutdownBeforeReadLoop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close() // unparks a stuck loop, so a failure does not leak it
	e := NewTCPNetwork().newEndpoint(2)
	if _, err := c.Write((&TCPEndpoint{addr: 7, net: e.net}).hello()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the HELLO lands in the receive queue
	wc := &wireConn{c: sc.(*net.TCPConn)}
	wc.shutdown()
	time.Sleep(10 * time.Millisecond) // and the shutdown's FIN is acknowledged
	done := make(chan struct{})
	e.done.Add(1)
	go func() {
		e.readLoop(wc, 0, true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("read loop of a shut-down connection still parked after 2s")
	}
}
