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

// inboxSize is each in-memory endpoint's inbox capacity. When an inbox is
// full further messages to it are dropped (and counted), like a congested
// link.
const inboxSize = 1024

// NetConfig configures the in-memory network. The zero value delivers at
// once and loses nothing.
type NetConfig struct {
	// Latency is every delivery's base delay.
	Latency time.Duration
	// Jitter is the scale of a random delay added on top of Latency, drawn
	// from JitterDist.
	Jitter     time.Duration
	JitterDist JitterDist
	// LinkLatency adds a per-link delay on top of the rest, modeling
	// geographic topologies (fast intra-zone links, slow cross-zone ones).
	// It must be safe for concurrent use.
	LinkLatency func(from, to Addr) time.Duration
	// DropProb loses each message independently with this probability.
	DropProb float64
}

// IsZero reports whether the configuration is the zero value: no delay, no
// loss and the default jitter shape.
func (c NetConfig) IsZero() bool {
	return c.Latency == 0 && c.Jitter == 0 && c.JitterDist == JitterUniform &&
		c.LinkLatency == nil && c.DropProb == 0
}

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
// JitterDist.String, so configuration front ends (scenario files) can
// round-trip the choice textually.
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

// Stats counts network activity. Dropped counts both random loss and
// partition/congestion drops. Delayed counts messages whose delivery was
// deferred by latency, jitter or per-link delay.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Delayed   uint64
}

// Network is an in-memory message network.
type Network struct {
	mu        sync.Mutex
	cfg       NetConfig
	rng       *rand.Rand
	endpoints map[Addr]*Endpoint
	groups    map[Addr]int // partition group per address; absent = group 0
	stats     Stats
	closed    bool
	pending   sync.WaitGroup
}

// NewNetwork creates an unpartitioned network. The seed fixes the RNG
// behind jitter and message loss, making runs reproducible.
func NewNetwork(seed int64, cfg NetConfig) *Network {
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
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
	ep := &Endpoint{addr: addr, net: n, in: make(chan Message, inboxSize)}
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
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.stats.Sent++
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
	if n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += drawJitter(n.rng, n.cfg.JitterDist, n.cfg.Jitter)
	}
	if n.cfg.LinkLatency != nil {
		delay += n.cfg.LinkLatency(e.addr, to)
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
