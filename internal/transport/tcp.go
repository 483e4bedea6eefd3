package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"arbor/internal/wire"
)

// TCP framing. Every frame is
//
//	[4-byte big-endian length][varint from][varint to][wire.Append bytes]
//
// where the length counts everything after itself. Addresses are signed
// varints (clients are negative). The first frame a dialer writes on a new
// connection is a HELLO instead:
//
//	[4-byte length]["ARBW"][wire.Version byte][varint dialer addr]
//
// which both checks the wire format (the acceptor closes the connection on
// a version mismatch — a format change is a loud handshake failure, not a
// silent mis-decode) and registers the dialer's
// address, so replies ride back over the same connection: clients need no
// listener of their own.
//
// Connections are multiplexed and pipelined: any number of requests can be
// in flight per connection, tagged with rpc-layer request IDs and matched
// out of order by the caller; cancelling one request never touches the
// connection. Each endpoint keeps a small fixed pool of
// connections per peer (round-robin across dialed and accepted ones) so
// head-of-line blocking on one socket's write lock is bounded.
const (
	// tcpMaxFrame bounds one frame's size, so a corrupt length prefix
	// cannot ask for an absurd allocation.
	tcpMaxFrame = 1 << 26
	// defaultConnsPerPeer is the outbound pool size per destination.
	defaultConnsPerPeer = 2
	// tcpReadBuf is the size of a read loop's buffer (see readBufPool).
	tcpReadBuf = 64 << 10
	// acceptBackoffMin and acceptBackoffMax bound the pause after a failed
	// Accept (EMFILE and the like): it doubles from the first to the second
	// and a success resets it — net/http.Server's schedule.
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// helloMagic opens every HELLO frame.
var helloMagic = [4]byte{'A', 'R', 'B', 'W'}

// frameBufPool recycles encode buffers; framing sits on every message, so
// the hot path must not allocate per frame.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// readBufPool lends read loops their buffers: a loop holds one only while
// bytes of a frame are pending (frameReader.release), so a parked
// connection holds none.
var readBufPool = sync.Pool{New: func() any { return &readBuf{b: new([tcpReadBuf]byte)} }}

// readBuf is what a read loop borrows: the buffer it reads into and the
// holder it decodes each frame into, so a parked connection holds neither.
// The buffer is an allocation of its own: with the holder beside it, it
// would no longer fit its 8 pages and take a ninth.
type readBuf struct {
	b   *[tcpReadBuf]byte
	msg wire.Msg
}

// TCPOption configures a TCPNetwork.
type TCPOption func(*TCPNetwork)

// WithConnsPerPeer sets how many connections an endpoint dials per
// destination (default 2). Accepted inbound connections are pooled for
// replies regardless.
func WithConnsPerPeer(n int) TCPOption { return func(t *TCPNetwork) { t.connsPerPeer = n } }

// TCPNetwork is a real-sockets counterpart to Network: listeners bind
// ephemeral loopback ports, an in-process registry maps logical addresses
// to them, and frames carry wire-encoded protocol messages. arbord and the
// benchmark run over it; the in-memory Network remains the simulator's
// because it can inject faults deterministically.
type TCPNetwork struct {
	connsPerPeer int

	mu        sync.Mutex
	endpoints map[Addr]*TCPEndpoint // every endpoint, for Close and duplicate detection
	listeners map[Addr]*TCPEndpoint // the dialable subset
	closed    bool
}

// NewTCPNetwork creates an empty TCP transport registry.
func NewTCPNetwork(opts ...TCPOption) *TCPNetwork {
	n := &TCPNetwork{
		connsPerPeer: defaultConnsPerPeer,
		endpoints:    make(map[Addr]*TCPEndpoint),
		listeners:    make(map[Addr]*TCPEndpoint),
	}
	for _, opt := range opts {
		opt(n)
	}
	n.connsPerPeer = max(n.connsPerPeer, 1)
	return n
}

// TCPEndpoint is one TCP-backed attachment point.
type TCPEndpoint struct {
	addr Addr
	net  *TCPNetwork
	ln   net.Listener // nil for dial-only (client) endpoints
	// in is Recv's channel, made on first use (inbox): an endpoint Served
	// before any traffic never holds one.
	in atomic.Pointer[chan Message]
	// handler is Serve's consumer (nil: messages go to the inbox). Read loops
	// hold serveMu shared across a delivery; swapping the handler takes it whole.
	serveMu sync.RWMutex
	handler Handler

	mu     sync.Mutex
	routes map[Addr]*peerRoute
	live   map[*wireConn]struct{} // every connection with a read loop, handshaking ones included
	closed bool
	done   sync.WaitGroup

	framesOut, framesIn, inboxDrops, decodeDrops, reads, dials, evictions atomic.Uint64
}

var _ Conn = (*TCPEndpoint)(nil)

// TCPStats counts what an endpoint moved and what it dropped. Every frame
// read off a socket is delivered, or counted in exactly one drop counter.
type TCPStats struct {
	// FramesOut is frames written to a socket; FramesIn is complete frames
	// read off one (handshakes excluded).
	FramesOut, FramesIn uint64
	// InboxDrops is decoded messages discarded because the delivery channel
	// was full — possible only on an endpoint nobody Serves; DecodeDrops is
	// frames whose addresses or payload did not decode.
	InboxDrops, DecodeDrops uint64
	// Reads is read(2) calls the read loops made, those that found the
	// socket empty (EAGAIN) included; Reads/FramesIn is about one.
	Reads uint64
	// Dials is connections this endpoint dialed; Evictions is connections
	// removed from a route, broken or ended, while the endpoint was open.
	Dials, Evictions uint64
}

// Stats snapshots the endpoint's frame, drop, read and connection counters.
func (e *TCPEndpoint) Stats() TCPStats {
	return TCPStats{
		FramesOut:   e.framesOut.Load(),
		FramesIn:    e.framesIn.Load(),
		InboxDrops:  e.inboxDrops.Load(),
		DecodeDrops: e.decodeDrops.Load(),
		Reads:       e.reads.Load(),
		Dials:       e.dials.Load(),
		Evictions:   e.evictions.Load(),
	}
}

// peerRoute is the connection pool toward one peer: connections this
// endpoint dialed plus connections the peer opened to us, used round-robin.
type peerRoute struct {
	dialMu sync.Mutex // serializes dial attempts toward the peer

	// Guarded by the endpoint's mu.
	conns  []*wireConn
	rr     uint
	dialed int // how many of conns were dialed by this endpoint
}

// pickLocked returns the next pool connection round-robin, or nil. Callers
// hold the endpoint's mu.
func (r *peerRoute) pickLocked() *wireConn {
	if len(r.conns) == 0 {
		return nil
	}
	r.rr++
	return r.conns[r.rr%uint(len(r.conns))]
}

// wireConn is one pooled connection. The write lock makes frames atomic;
// reads run in a dedicated goroutine per connection, the read loop, which
// once started alone may Close it (see readLoop).
type wireConn struct {
	c      *net.TCPConn
	mu     sync.Mutex // guards writes
	dialed bool
}

// shutdown ends both directions without closing: a write blocked toward the
// peer fails, and the read loop exits and closes the connection. The expired
// read deadline is what guarantees the exit: EOF alone does not, because a
// read loop that had not yet entered RawConn.Read when the shutdown's
// readiness edge fired clears that edge on entry, reads the data still
// queued, and parks after the short read with no edge left to wake it.
func (wc *wireConn) shutdown() {
	_ = wc.c.CloseRead() // fails only on a connection its loop already closed
	_ = wc.c.CloseWrite()
	_ = wc.c.SetReadDeadline(time.Unix(1, 0))
}

// Register creates a listener endpoint on an ephemeral loopback port.
func (n *TCPNetwork) Register(addr Addr) (*TCPEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateAddr, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ep := n.newEndpoint(addr)
	ep.ln = ln
	n.endpoints[addr] = ep
	n.listeners[addr] = ep
	ep.done.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Listen implements Transport: replicas attach through it.
func (n *TCPNetwork) Listen(addr Addr) (Conn, error) { return n.Register(addr) }

// Dial implements Transport: it attaches a dial-only endpoint at addr. The
// endpoint reaches listeners on demand and receives replies over the
// connections it opens; peers cannot initiate contact with it. Clients
// attach through it.
func (n *TCPNetwork) Dial(addr Addr) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateAddr, addr)
	}
	ep := n.newEndpoint(addr)
	n.endpoints[addr] = ep
	return ep, nil
}

func (n *TCPNetwork) newEndpoint(addr Addr) *TCPEndpoint {
	return &TCPEndpoint{
		addr:   addr,
		net:    n,
		routes: make(map[Addr]*peerRoute),
		live:   make(map[*wireConn]struct{}),
	}
}

// lookup resolves an address to its listener's TCP address.
func (n *TCPNetwork) lookup(addr Addr) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.listeners[addr]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrUnknownAddr, addr)
	}
	return ep.ln.Addr().String(), nil
}

// Close shuts down every endpoint.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*TCPEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.close()
	}
}

// Addr returns the endpoint's logical address.
func (e *TCPEndpoint) Addr() Addr { return e.addr }

// Recv returns the endpoint's delivery channel, idle while a Serve handler is installed.
func (e *TCPEndpoint) Recv() <-chan Message { return e.inbox() }

// inbox returns the delivery channel, making it on first use. It holds what
// arrives while nobody Serves or receives, up to a burst of 1024 messages;
// beyond that, deliveries are dropped and counted (TCPStats.InboxDrops).
func (e *TCPEndpoint) inbox() chan Message {
	if in := e.in.Load(); in != nil {
		return *in
	}
	in := make(chan Message, 1024)
	if e.in.CompareAndSwap(nil, &in) {
		return in
	}
	return *e.in.Load()
}

// Send implements Conn: send with no stamp.
func (e *TCPEndpoint) Send(to Addr, payload any) error { return e.send(to, payload, wire.Stamp{}) }

// send encodes the payload, st written into it, and writes one frame to a
// pooled connection. A broken connection is dropped and the frame retried
// once on a fresh pick. Encode buffers are pooled: steady-state sends do not
// allocate in the framing layer. Nothing of payload outlives the call.
func (e *TCPEndpoint) send(to Addr, payload any, st wire.Stamp) error {
	bp := frameBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf = binary.AppendVarint(buf, int64(e.addr))
	buf = binary.AppendVarint(buf, int64(to))
	buf, err := wire.Append(buf, payload, st)
	if err == nil && len(buf)-4 > tcpMaxFrame {
		err = fmt.Errorf("transport: frame to %d exceeds %d bytes", to, tcpMaxFrame)
	}
	if err == nil {
		binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
		for attempt := 0; attempt < 2; attempt++ {
			var wc *wireConn
			wc, err = e.pick(to)
			if err != nil {
				break
			}
			wc.mu.Lock()
			_, werr := wc.c.Write(buf)
			wc.mu.Unlock()
			if werr == nil {
				e.framesOut.Add(1)
				err = nil
				break
			}
			e.dropConn(to, wc)
			err = fmt.Errorf("transport: send to %d: %w", to, werr)
		}
	}
	if cap(buf) <= wire.MaxPooledBuf { // a buffer grown larger is dropped
		*bp = buf
		frameBufPool.Put(bp)
	}
	return err
}

// pick returns a pooled connection toward the peer, growing the dialed
// pool up to the configured size when this endpoint is the initiating side
// (a route fed by accepted inbound connections — a replica answering a
// client — reuses those instead of dialing back).
func (e *TCPEndpoint) pick(to Addr) (*wireConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	r := e.routeLocked(to)
	grow := r.dialed < e.net.connsPerPeer && len(r.conns) == r.dialed
	if wc := r.pickLocked(); wc != nil && !grow {
		e.mu.Unlock()
		return wc, nil
	}
	e.mu.Unlock()
	if grow {
		if err := e.growRoute(to, r); err != nil {
			// A failed dial can still fall back to an inbound connection
			// that appeared meanwhile.
			e.mu.Lock()
			wc := r.pickLocked()
			e.mu.Unlock()
			if wc == nil {
				return nil, err
			}
			return wc, nil
		}
	}
	e.mu.Lock()
	wc := r.pickLocked()
	e.mu.Unlock()
	if wc == nil {
		return nil, fmt.Errorf("transport: no route to %d", to)
	}
	return wc, nil
}

// growRoute dials one more pool connection toward the peer and performs
// the HELLO handshake. Dials to one peer are serialized; concurrent
// senders queue here only while the pool ramps up or recovers.
func (e *TCPEndpoint) growRoute(to Addr, r *peerRoute) error {
	r.dialMu.Lock()
	defer r.dialMu.Unlock()
	e.mu.Lock()
	need := r.dialed < e.net.connsPerPeer && len(r.conns) == r.dialed
	e.mu.Unlock()
	if !need {
		return nil
	}
	target, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	c, err := net.Dial("tcp", target)
	if err != nil {
		return fmt.Errorf("transport: dial %d: %w", to, err)
	}
	if _, err := c.Write(e.hello()); err != nil {
		_ = c.Close()
		return fmt.Errorf("transport: hello to %d: %w", to, err)
	}
	wc := &wireConn{c: c.(*net.TCPConn), dialed: true}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.startLocked(wc, to, false) {
		_ = c.Close()
		return ErrClosed
	}
	r.conns = append(r.conns, wc)
	r.dialed++
	e.dials.Add(1)
	return nil
}

// routeLocked returns the route toward peer, creating it. Callers hold mu.
func (e *TCPEndpoint) routeLocked(peer Addr) *peerRoute {
	r := e.routes[peer]
	if r == nil {
		r = &peerRoute{}
		e.routes[peer] = r
	}
	return r
}

// startLocked runs wc's read loop and puts it where close shuts it down,
// unless the endpoint is closed. Callers hold mu.
func (e *TCPEndpoint) startLocked(wc *wireConn, peer Addr, hello bool) bool {
	if e.closed {
		return false
	}
	e.live[wc] = struct{}{}
	e.done.Add(1)
	go e.readLoop(wc, peer, hello)
	return true
}

// hello builds the handshake frame announcing this endpoint's address and
// the wire version it will frame messages in.
func (e *TCPEndpoint) hello() []byte {
	body := make([]byte, 0, 4+len(helloMagic)+1+binary.MaxVarintLen64)
	body = append(body, 0, 0, 0, 0)
	body = append(body, helloMagic[:]...)
	body = append(body, wire.Version)
	body = binary.AppendVarint(body, int64(e.addr))
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	return body
}

// parseHello validates a HELLO body against this end's wire version and
// returns the dialer's address.
func parseHello(body []byte) (Addr, error) {
	if len(body) < 5 || [4]byte(body[:4]) != helloMagic {
		return 0, errors.New("transport: not a hello frame")
	}
	if v := body[4]; v != wire.Version {
		return 0, fmt.Errorf("transport: wire version mismatch: peer speaks v%d, this end v%d", v, wire.Version)
	}
	rest := body[5:]
	peer, k := binary.Varint(rest)
	if k <= 0 || k != len(rest) {
		return 0, errors.New("transport: malformed hello")
	}
	return Addr(peer), nil
}

// dropConn evicts a broken connection — from peer's route, so no Send
// picks it, and from close's reach — and shuts it down; its read loop then
// closes it.
func (e *TCPEndpoint) dropConn(peer Addr, wc *wireConn) {
	e.mu.Lock()
	delete(e.live, wc)
	if r := e.routes[peer]; r != nil {
		for i, c := range r.conns {
			if c == wc {
				r.conns = append(r.conns[:i], r.conns[i+1:]...)
				if wc.dialed {
					r.dialed--
				}
				if !e.closed {
					e.evictions.Add(1)
				}
				break
			}
		}
	}
	e.mu.Unlock()
	wc.shutdown()
}

// acceptLoop serves inbound connections until the listener closes. A failed
// Accept backs off before the next (see acceptBackoffMin); the first
// failure that is not a closed listener would otherwise recur at once.
func (e *TCPEndpoint) acceptLoop() {
	defer e.done.Done()
	var delay time.Duration
	for {
		c, err := e.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
			time.Sleep(delay)
			continue
		}
		delay = 0
		e.mu.Lock()
		if !e.startLocked(&wireConn{c: c.(*net.TCPConn)}, 0, true) {
			_ = c.Close()
		}
		e.mu.Unlock()
	}
}

// frameReader splits one connection's byte stream into frame bodies, in a
// buffer it borrows from readBufPool and reads into straight from the socket.
type frameReader struct {
	buf  *readBuf // nil while parked with nothing pending (see release)
	r, w int      // buf[r:w] is read and not yet delivered
	need int      // body length of the frame whose header was taken; 0: none
	big  []byte   // a body larger than buf, filled up to its capacity
}

// run hands every frame body to frame, in order, until the connection fails
// or ends or frame returns an error. It costs one read(2) per batch of
// frames: the loop lives in one RawConn.Read callback for the connection's
// whole life, and a read that returns less than it asked for drained the
// socket, so the callback parks on readiness instead of reading again to be
// told EAGAIN. That is sound only because Go's poller registers sockets
// edge-triggered (EPOLLET) and clears pending readiness in one place, the
// entry of RawConn.Read: bytes that arrive after the short read, while its
// frames are handled, raise a fresh edge that the wait after the callback
// sees. Leaving RawConn.Read between frames would clear that edge and park
// on a socket holding data — which is why a reader over net.Conn, whose
// every Read re-enters the poller, must read until EAGAIN.
func (fr *frameReader) run(c *net.TCPConn, reads *atomic.Uint64, frame func([]byte, *wire.Msg) error) {
	rc, _ := c.SyscallConn() // fails only on a nil connection
	_ = rc.Read(func(fd uintptr) bool {
		for {
			p := fr.space()
			n, err := syscall.Read(int(fd), p)
			reads.Add(1)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				fr.release()
				return false // drained after all: park
			case err != nil || n == 0: // failed, or EOF
				return true
			case fr.got(n, frame) != nil:
				return true
			case n < len(p):
				fr.release()
				return false // drained: park until the next edge
			}
		}
	})
	fr.release()
}

// space returns where the next read goes: the rest of a large body, or buf
// behind what it holds, compacted to its start first — borrowed from the
// pool if the loop parked without one. A partial frame in buf needs at most
// len(buf) bytes, so the space is never empty.
func (fr *frameReader) space() []byte {
	if fr.big != nil {
		return fr.big[len(fr.big):cap(fr.big)]
	}
	fr.borrow()
	if fr.r > 0 {
		fr.w = copy(fr.buf.b[:], fr.buf.b[fr.r:fr.w])
		fr.r = 0
	}
	return fr.buf.b[fr.w:]
}

// borrow takes a buffer from the pool if the loop holds none.
func (fr *frameReader) borrow() {
	if fr.buf == nil {
		fr.buf = readBufPool.Get().(*readBuf)
	}
}

// release returns buf to the pool unless it holds bytes of a partial frame:
// a header already taken lives on in need and a large body in big, so only
// buf[r:w] pins it. Bodies and messages handed to frame are dead by then,
// and must be: the next holder of buf overwrites them. The holder is
// cleared, so a pooled buffer pins no message's strings or values.
func (fr *frameReader) release() {
	if fr.buf != nil && fr.r == fr.w {
		fr.buf.msg = wire.Msg{}
		readBufPool.Put(fr.buf)
		fr.buf, fr.r, fr.w = nil, 0, 0
	}
}

// got takes n bytes just read into space and passes every body they complete
// to frame, with buf's holder to decode it into. A body is valid only during
// the call: a view into buf when it fits, else a buffer of exactly its size.
// So is every key decoded as a view of it (Msg.Decode): the next frame
// overwrites buf, on this connection or on whichever borrows buf next.
func (fr *frameReader) got(n int, frame func([]byte, *wire.Msg) error) error {
	if fr.big != nil {
		if fr.big = fr.big[:len(fr.big)+n]; len(fr.big) < cap(fr.big) {
			return nil
		}
		body := fr.big
		fr.big = nil
		fr.borrow() // for its holder: buf may have gone back while the body filled
		return fr.hand(body, frame)
	}
	fr.w += n
	for {
		if fr.need == 0 && fr.w-fr.r >= 4 {
			fr.need = int(binary.BigEndian.Uint32(fr.buf.b[fr.r:]))
			fr.r += 4
			if fr.need == 0 || fr.need > tcpMaxFrame {
				return fmt.Errorf("transport: frame of %d bytes", fr.need)
			}
			if fr.need > len(fr.buf.b) {
				fr.big = append(make([]byte, 0, fr.need), fr.buf.b[fr.r:fr.w]...)
				fr.r, fr.need = fr.w, 0
				return nil
			}
		}
		if fr.need == 0 || fr.w-fr.r < fr.need {
			return nil
		}
		body := fr.buf.b[fr.r : fr.r+fr.need]
		fr.r, fr.need = fr.r+fr.need, 0
		if err := fr.hand(body, frame); err != nil {
			return err
		}
	}
}

// hand passes body to frame with buf's holder. A -race build then overwrites
// body, so a view of it kept past the call reads garbage and races with the
// write.
func (fr *frameReader) hand(body []byte, frame func([]byte, *wire.Msg) error) error {
	err := frame(body, &fr.buf.msg)
	if raceEnabled {
		clear(body)
	}
	return err
}

// readLoop delivers one connection's frames — to the Serve handler on this
// goroutine, decoded into the holder it borrows with its read buffer, else
// boxed to the inbox — until the connection dies. On
// an accepted connection (hello) the first frame is the HELLO, which puts
// the connection on the dialer's route: replies reuse it, which is how
// dial-only clients hear back.
//
// Handlers run while the loop holds the connection's read lock, and
// net.Conn.Close waits for that lock, so only the read loop closes its
// connection: Send's eviction and close shut it down instead, and the loop
// then finds EOF, evicts the connection and closes it. A handler whose
// failed reply evicted its own connection would deadlock otherwise.
func (e *TCPEndpoint) readLoop(wc *wireConn, peer Addr, hello bool) {
	var fr frameReader
	fr.run(wc.c, &e.reads, func(frame []byte, m *wire.Msg) error {
		if hello {
			p, err := parseHello(frame)
			if err != nil {
				return err
			}
			e.mu.Lock()
			r := e.routeLocked(p)
			r.conns = append(r.conns, wc)
			e.mu.Unlock()
			peer, hello = p, false
			return nil
		}
		e.framesIn.Add(1)
		from, k1 := binary.Varint(frame)
		to, k2 := binary.Varint(frame[max(k1, 0):])
		if k1 > 0 && k2 > 0 && e.deliver(Addr(from), Addr(to), frame[k1+k2:], m) == nil {
			return nil
		}
		// Framing is intact (the length prefix was honored), so a frame that
		// fails to decode is dropped like a lost message rather than killing
		// every other request on the connection.
		e.decodeDrops.Add(1)
		return nil
	})
	e.dropConn(peer, wc)
	_ = wc.c.Close()
	e.done.Done()
}

// close tears the endpoint down: it shuts down every connection, pooled or
// still handshaking, and closes the listener; the read loops exit and close
// their connections.
func (e *TCPEndpoint) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.done.Wait()
		return
	}
	e.closed = true
	for wc := range e.live {
		wc.shutdown()
	}
	e.mu.Unlock()
	if e.ln != nil {
		_ = e.ln.Close()
	}
	e.done.Wait()
}
