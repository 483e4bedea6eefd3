// Package transport provides the message substrate the simulated replicas
// communicate over: an in-memory network of addressable endpoints with
// configurable latency, jitter, message loss and partitions. The paper's
// system model — sites exchanging messages over bidirectional links that may
// drop, delay or partition — maps directly onto it.
package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"arbor/internal/wire"
)

// Addr addresses an endpoint. Clusters map replica site IDs onto positive
// addresses and clients onto negative ones.
type Addr int

// Message is a delivered payload with its source and destination.
type Message struct {
	From    Addr
	To      Addr
	Payload any
}

// Errors returned by Send and Register.
var (
	ErrClosed        = errors.New("transport: network closed")
	ErrUnknownAddr   = errors.New("transport: unknown destination")
	ErrDuplicateAddr = errors.New("transport: address already registered")
)

// Option configures a Network.
type Option interface {
	apply(*options)
}

type options struct {
	latency    time.Duration
	jitter     time.Duration
	jitterDist JitterDist
	linkFn     func(from, to Addr) time.Duration
	dropProb   float64
	seed       int64
	bufferSize int
	codec      wire.Codec
}

type latencyOption struct{ base, jitter time.Duration }

func (o latencyOption) apply(opts *options) { opts.latency, opts.jitter = o.base, o.jitter }

// WithLatency makes every delivery wait base plus a uniform random jitter.
func WithLatency(base, jitter time.Duration) Option { return latencyOption{base: base, jitter: jitter} }

type linkLatencyOption func(from, to Addr) time.Duration

func (o linkLatencyOption) apply(opts *options) { opts.linkFn = o }

// WithLinkLatency adds a per-link delay on top of the base latency, letting
// tests model geographic topologies (e.g. fast intra-zone links, slow
// cross-zone ones). The function must be safe for concurrent use.
func WithLinkLatency(fn func(from, to Addr) time.Duration) Option { return linkLatencyOption(fn) }

// JitterDist shapes the random component of per-message delay. Every draw
// comes from the network's seeded RNG, so a given seed replays the same
// delay sequence regardless of distribution — the chaos harness depends on
// this to reproduce tail-latency scenarios exactly.
type JitterDist int

// Jitter distributions.
const (
	// JitterUniform draws uniformly from [0, jitter) — the default.
	JitterUniform JitterDist = iota
	// JitterExponential draws from an exponential with mean jitter,
	// truncated at 8× jitter: occasional stragglers, thin tail.
	JitterExponential
	// JitterPareto draws from a Pareto (α=1.3, minimum jitter/4) truncated
	// at 16× jitter: the heavy tail that makes hedging earn its keep.
	JitterPareto
)

// String names the distribution in the form ParseJitterDist reads.
func (d JitterDist) String() string {
	switch d {
	case JitterExponential:
		return "exponential"
	case JitterPareto:
		return "pareto"
	default:
		return "uniform"
	}
}

// ParseJitterDist resolves a distribution by name. It is the inverse of
// JitterDist.String, so configuration front ends (simrun flags, scenario
// files) can round-trip the choice textually.
func ParseJitterDist(name string) (JitterDist, error) {
	switch name {
	case "", "uniform":
		return JitterUniform, nil
	case "exponential":
		return JitterExponential, nil
	case "pareto":
		return JitterPareto, nil
	default:
		return 0, fmt.Errorf("transport: unknown jitter distribution %q (want uniform, exponential or pareto)", name)
	}
}

// drawJitter samples one delay from the distribution. Factored out so the
// distributions are unit-testable; callers hold the RNG's lock.
func drawJitter(rng *rand.Rand, dist JitterDist, jitter time.Duration) time.Duration {
	switch dist {
	case JitterExponential:
		d := time.Duration(rng.ExpFloat64() * float64(jitter))
		if max := 8 * jitter; d > max {
			d = max
		}
		return d
	case JitterPareto:
		// Inverse-CDF sampling: x = xm / U^(1/α).
		const alpha = 1.3
		xm := float64(jitter) / 4
		u := rng.Float64()
		if u == 0 {
			u = 1
		}
		d := time.Duration(xm * math.Pow(u, -1/alpha))
		if max := 16 * jitter; d > max {
			d = max
		}
		return d
	default:
		return time.Duration(rng.Int63n(int64(jitter)))
	}
}

type jitterDistOption JitterDist

func (o jitterDistOption) apply(opts *options) { opts.jitterDist = JitterDist(o) }

// WithJitterDistribution selects the shape of the random delay component
// configured by WithLatency (default JitterUniform). The draws consume the
// network's seeded RNG, so runs stay reproducible per seed.
func WithJitterDistribution(d JitterDist) Option { return jitterDistOption(d) }

type dropOption float64

func (o dropOption) apply(opts *options) { opts.dropProb = float64(o) }

// WithDropProbability drops each message independently with probability p.
func WithDropProbability(p float64) Option { return dropOption(p) }

type seedOption int64

func (o seedOption) apply(opts *options) { opts.seed = int64(o) }

// WithSeed fixes the RNG used for jitter and message loss, making runs
// reproducible.
func WithSeed(seed int64) Option { return seedOption(seed) }

type bufferOption int

func (o bufferOption) apply(opts *options) { opts.bufferSize = int(o) }

// WithBufferSize sets each endpoint's inbox capacity. When an inbox is full
// further messages to it are dropped (and counted), like a congested link.
func WithBufferSize(n int) Option { return bufferOption(n) }

type codecOption struct{ c wire.Codec }

func (o codecOption) apply(opts *options) { opts.codec = o.c }

// WithWireCodec makes every delivery round-trip through the given codec
// (encode, then decode the bytes the receiver would see) instead of
// handing the payload pointer across. It costs the serialization work real
// deployments pay, which is the point: the whole simulation stack — chaos
// schedules included — exercises the codec end to end, and the encoded
// volume shows up in Stats.WireBytes. Off by default; the -codec flags on
// arbord and simrun switch it on.
func WithWireCodec(c wire.Codec) Option { return codecOption{c: c} }

// Stats counts network activity. Dropped counts both random loss and
// partition/congestion drops. Delayed counts messages whose delivery was
// deferred by latency, jitter or per-link delay. WireBytes accumulates the
// encoded size of every message when a codec is armed (WithWireCodec), and
// stays zero otherwise.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Delayed   uint64
	WireBytes uint64
}

// Network is an in-memory message network.
type Network struct {
	mu        sync.Mutex
	opts      options
	rng       *rand.Rand
	endpoints map[Addr]*Endpoint
	groups    map[Addr]int // partition group per address; absent = group 0
	stats     Stats
	closed    bool
	pending   sync.WaitGroup
}

// NewNetwork creates a network. By default delivery is immediate, lossless
// and unpartitioned.
func NewNetwork(opts ...Option) *Network {
	o := options{bufferSize: 1024, seed: 1}
	for _, opt := range opts {
		opt.apply(&o)
	}
	return &Network{
		opts:      o,
		rng:       rand.New(rand.NewSource(o.seed)),
		endpoints: make(map[Addr]*Endpoint),
		groups:    make(map[Addr]int),
	}
}

// Endpoint is one attachment point on the network.
type Endpoint struct {
	addr Addr
	net  *Network
	in   chan Message
}

// Listen implements Transport. On the in-memory network every endpoint is
// reachable by address, so Listen and Dial are both Register.
func (n *Network) Listen(addr Addr) (Conn, error) { return n.Register(addr) }

// Dial implements Transport; see Listen.
func (n *Network) Dial(addr Addr) (Conn, error) { return n.Register(addr) }

// Register attaches a new endpoint at the given address.
func (n *Network) Register(addr Addr) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateAddr, addr)
	}
	ep := &Endpoint{addr: addr, net: n, in: make(chan Message, n.opts.bufferSize)}
	n.endpoints[addr] = ep
	return ep, nil
}

// Partition splits the network into the given groups of addresses; messages
// crossing group boundaries are dropped. Addresses not listed form an
// implicit extra group. Heal() removes the partition.
func (n *Network) Partition(groups ...[]Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[Addr]int)
	for gi, group := range groups {
		for _, a := range group {
			n.groups[a] = gi + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[Addr]int)
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close stops the network. In-flight delayed messages are waited for (they
// are dropped if their destination buffer is gone). Further sends fail with
// ErrClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.pending.Wait()
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Recv returns the endpoint's delivery channel.
func (e *Endpoint) Recv() <-chan Message { return e.in }

// Send transmits a payload to another endpoint, subject to the network's
// loss, latency and partition behaviour. A nil error means the message was
// accepted by the network, not that it will be delivered.
func (e *Endpoint) Send(to Addr, payload any) error {
	n := e.net
	wireBytes := 0
	if c := n.opts.codec; c != nil {
		// Codec fidelity mode: deliver what the receiver would decode, not
		// the sender's pointer. Encode buffers are pooled; Decode copies.
		bp := frameBufPool.Get().(*[]byte)
		buf, err := c.Encode((*bp)[:0], payload)
		if err == nil {
			payload, err = c.Decode(buf)
		}
		wireBytes = len(buf)
		putFrameBuf(bp, buf)
		if err != nil {
			return fmt.Errorf("transport: codec round-trip to %d: %w", to, err)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.stats.Sent++
	n.stats.WireBytes += uint64(wireBytes)
	dst, ok := n.endpoints[to]
	if !ok {
		n.stats.Dropped++
		n.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownAddr, to)
	}
	if n.groups[e.addr] != n.groups[to] {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil // partitioned: silently lost, like a real link
	}
	if n.opts.dropProb > 0 && n.rng.Float64() < n.opts.dropProb {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := n.opts.latency
	if n.opts.jitter > 0 {
		delay += drawJitter(n.rng, n.opts.jitterDist, n.opts.jitter)
	}
	if n.opts.linkFn != nil {
		delay += n.opts.linkFn(e.addr, to)
	}
	msg := Message{From: e.addr, To: to, Payload: payload}
	if delay <= 0 {
		n.deliverLocked(dst, msg)
		n.mu.Unlock()
		return nil
	}
	n.stats.Delayed++
	n.pending.Add(1)
	n.mu.Unlock()
	time.AfterFunc(delay, func() {
		defer n.pending.Done()
		n.mu.Lock()
		defer n.mu.Unlock()
		n.deliverLocked(dst, msg)
	})
	return nil
}

// deliverLocked places the message in the destination buffer or drops it if
// the buffer is full. Callers hold n.mu.
func (n *Network) deliverLocked(dst *Endpoint, msg Message) {
	select {
	case dst.in <- msg:
		n.stats.Delivered++
	default:
		n.stats.Dropped++
	}
}
