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
//	[4-byte big-endian length][varint from][varint to][codec bytes]
//
// where the length counts everything after itself. Addresses are signed
// varints (clients are negative). The first frame a dialer writes on a new
// connection is a HELLO instead:
//
//	[4-byte length]["ARBW"][codec version byte][uvarint name length][codec name][varint dialer addr]
//
// which both negotiates the wire format (the acceptor closes the
// connection on a codec name/version mismatch — a format change is a loud
// handshake failure, not a silent mis-decode) and registers the dialer's
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
	// tcpReadBuf is each connection's read buffer.
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

// putFrameBuf returns an encode buffer to the pool, unless it grew too large.
func putFrameBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= wire.MaxPooledBuf {
		*bp = buf
		frameBufPool.Put(bp)
	}
}

// TCPOption configures a TCPNetwork.
type TCPOption interface {
	applyTCP(*tcpOptions)
}

type tcpOptions struct {
	codec        wire.Codec
	connsPerPeer int
}

type tcpCodecOption struct{ c wire.Codec }

func (o tcpCodecOption) applyTCP(opts *tcpOptions) { opts.codec = o.c }

// WithTCPCodec selects the wire codec (default: the binary codec). Both
// ends of every connection must agree; the HELLO handshake enforces it.
func WithTCPCodec(c wire.Codec) TCPOption { return tcpCodecOption{c: c} }

type connsPerPeerOption int

func (o connsPerPeerOption) applyTCP(opts *tcpOptions) { opts.connsPerPeer = int(o) }

// WithConnsPerPeer sets how many connections an endpoint dials per
// destination (default 2). Accepted inbound connections are pooled for
// replies regardless.
func WithConnsPerPeer(n int) TCPOption { return connsPerPeerOption(n) }

// TCPNetwork is a real-sockets counterpart to Network: listeners bind
// ephemeral loopback ports, an in-process registry maps logical addresses
// to them, and frames carry codec-encoded protocol messages. arbord and the
// benchmark run over it; the in-memory Network remains the simulator's
// because it can inject faults deterministically.
type TCPNetwork struct {
	opts tcpOptions

	mu        sync.Mutex
	endpoints map[Addr]*TCPEndpoint // every endpoint, for Close and duplicate detection
	listeners map[Addr]*TCPEndpoint // the dialable subset
	closed    bool
}

// NewTCPNetwork creates an empty TCP transport registry.
func NewTCPNetwork(opts ...TCPOption) *TCPNetwork {
	o := tcpOptions{codec: wire.Binary(), connsPerPeer: defaultConnsPerPeer}
	for _, opt := range opts {
		opt.applyTCP(&o)
	}
	if o.connsPerPeer < 1 {
		o.connsPerPeer = 1
	}
	return &TCPNetwork{
		opts:      o,
		endpoints: make(map[Addr]*TCPEndpoint),
		listeners: make(map[Addr]*TCPEndpoint),
	}
}

// Codec returns the codec this network frames messages with.
func (n *TCPNetwork) Codec() wire.Codec { return n.opts.codec }

// TCPEndpoint is one TCP-backed attachment point.
type TCPEndpoint struct {
	addr Addr
	net  *TCPNetwork
	ln   net.Listener // nil for dial-only (client) endpoints
	in   chan Message
	// handler is Serve's consumer (nil: messages go to in). Read loops hold
	// serveMu shared across a delivery; swapping the handler takes it whole.
	serveMu sync.RWMutex
	handler func(Message)

	mu     sync.Mutex
	routes map[Addr]*peerRoute
	live   map[*wireConn]struct{} // every connection with a read loop, handshaking ones included
	closed bool
	done   sync.WaitGroup

	framesOut, framesIn, inboxDrops, decodeDrops, reads atomic.Uint64
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
}

// Stats snapshots the endpoint's frame, drop and read counters.
func (e *TCPEndpoint) Stats() TCPStats {
	return TCPStats{
		FramesOut:   e.framesOut.Load(),
		FramesIn:    e.framesIn.Load(),
		InboxDrops:  e.inboxDrops.Load(),
		DecodeDrops: e.decodeDrops.Load(),
		Reads:       e.reads.Load(),
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
		in:     make(chan Message, 1024),
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
	//lint:ignore detrand shutdown fan-out: close order is not observable in any seed-reproducible output
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
func (e *TCPEndpoint) Recv() <-chan Message { return e.in }

// Conns reports how many live connections the endpoint currently pools
// across all peers — observability for tests and operators (a pipelined
// workload should hold it at the configured pool size, not one per
// request).
func (e *TCPEndpoint) Conns() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, r := range e.routes {
		total += len(r.conns)
	}
	return total
}

// Send encodes the payload with the network's codec and writes one frame
// to a pooled connection. A broken connection is dropped and the frame
// retried once on a fresh pick. Encode buffers are pooled: steady-state
// sends do not allocate in the framing layer.
func (e *TCPEndpoint) Send(to Addr, payload any) error {
	bp := frameBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf = binary.AppendVarint(buf, int64(e.addr))
	buf = binary.AppendVarint(buf, int64(to))
	buf, err := e.net.opts.codec.Encode(buf, payload)
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
	putFrameBuf(bp, buf)
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
	grow := r.dialed < e.net.opts.connsPerPeer && len(r.conns) == r.dialed
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
	need := r.dialed < e.net.opts.connsPerPeer && len(r.conns) == r.dialed
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
// the codec it will frame messages with.
func (e *TCPEndpoint) hello() []byte {
	codec := e.net.opts.codec
	name := codec.Name()
	body := make([]byte, 0, 4+1+1+len(name)+binary.MaxVarintLen64+4)
	body = append(body, 0, 0, 0, 0)
	body = append(body, helloMagic[:]...)
	body = append(body, codec.Version())
	body = binary.AppendUvarint(body, uint64(len(name)))
	body = append(body, name...)
	body = binary.AppendVarint(body, int64(e.addr))
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	return body
}

// parseHello validates a HELLO body against this endpoint's codec and
// returns the dialer's address.
func (e *TCPEndpoint) parseHello(body []byte) (Addr, error) {
	if len(body) < 5 || [4]byte(body[:4]) != helloMagic {
		return 0, errors.New("transport: not a hello frame")
	}
	codec := e.net.opts.codec
	version := body[4]
	rest := body[5:]
	nameLen, k := binary.Uvarint(rest)
	if k <= 0 || nameLen > uint64(len(rest)-k) {
		return 0, errors.New("transport: malformed hello")
	}
	name := string(rest[k : k+int(nameLen)])
	rest = rest[k+int(nameLen):]
	if name != codec.Name() || version != codec.Version() {
		return 0, fmt.Errorf("transport: codec mismatch: peer speaks %s/v%d, this end %s/v%d",
			name, version, codec.Name(), codec.Version())
	}
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
// buffer it owns and reads into straight from the socket.
type frameReader struct {
	buf  []byte // tcpReadBuf bytes; never grown
	r, w int    // buf[r:w] is read and not yet delivered
	need int    // body length of the frame whose header was taken; 0: none
	big  []byte // a body larger than buf, filled up to its capacity
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
func (fr *frameReader) run(c *net.TCPConn, reads *atomic.Uint64, frame func([]byte) error) {
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
				return false // drained after all: park
			case err != nil || n == 0: // failed, or EOF
				return true
			case fr.got(n, frame) != nil:
				return true
			case n < len(p):
				return false // drained: park until the next edge
			}
		}
	})
}

// space returns where the next read goes: the rest of a large body, or buf
// behind what it holds, compacted to its start first. A partial frame in buf
// needs at most len(buf) bytes, so the space is never empty.
func (fr *frameReader) space() []byte {
	if fr.big != nil {
		return fr.big[len(fr.big):cap(fr.big)]
	}
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	return fr.buf[fr.w:]
}

// got takes n bytes just read into space and passes every body they complete
// to frame. A body is valid only during the call: a view into buf when it
// fits (Codec.Decode never aliases its input, so nothing decoded outlives
// it), else a buffer of exactly its size.
func (fr *frameReader) got(n int, frame func([]byte) error) error {
	if fr.big != nil {
		if fr.big = fr.big[:len(fr.big)+n]; len(fr.big) < cap(fr.big) {
			return nil
		}
		body := fr.big
		fr.big = nil
		return frame(body)
	}
	fr.w += n
	for {
		if fr.need == 0 && fr.w-fr.r >= 4 {
			fr.need = int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
			fr.r += 4
			if fr.need == 0 || fr.need > tcpMaxFrame {
				return fmt.Errorf("transport: frame of %d bytes", fr.need)
			}
			if fr.need > len(fr.buf) {
				fr.big = append(make([]byte, 0, fr.need), fr.buf[fr.r:fr.w]...)
				fr.r, fr.need = fr.w, 0
				return nil
			}
		}
		if fr.need == 0 || fr.w-fr.r < fr.need {
			return nil
		}
		body := fr.buf[fr.r : fr.r+fr.need]
		fr.r, fr.need = fr.r+fr.need, 0
		if err := frame(body); err != nil {
			return err
		}
	}
}

// readLoop decodes one connection's frames and delivers each — to the Serve
// handler on this goroutine, else the inbox — until the connection dies. On
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
	fr := frameReader{buf: make([]byte, tcpReadBuf)}
	fr.run(wc.c, &e.reads, func(frame []byte) error {
		if hello {
			p, err := e.parseHello(frame)
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
		if k1 > 0 && k2 > 0 {
			if payload, err := e.net.opts.codec.Decode(frame[k1+k2:]); err == nil {
				e.deliver(Message{From: Addr(from), To: Addr(to), Payload: payload})
				return nil
			}
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
	//lint:ignore detrand shutdown fan-out: close order is not observable in any seed-reproducible output
	for wc := range e.live {
		wc.shutdown()
	}
	e.mu.Unlock()
	if e.ln != nil {
		_ = e.ln.Close()
	}
	e.done.Wait()
}
