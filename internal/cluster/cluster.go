// Package cluster wires a replica tree, a transport network, replica
// servers and protocol clients into a runnable distributed system, with
// failure injection (crashes, recoveries, partitions) and per-replica load
// accounting. The network is the simulated in-memory one by default, or
// loopback TCP with the binary codec under Config.TCP.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// Config configures a Cluster. A zero duration or size keeps the default;
// the seed is taken as given.
type Config struct {
	// Net configures the in-memory network: latency, jitter, per-link
	// delay and loss. Under TCP it must stay zero.
	Net transport.NetConfig
	// Seed seeds all randomness: the network's, and the i-th client's as
	// Seed+i.
	Seed int64
	// ClientTimeout is the clients' per-request failure-detection deadline
	// (zero: 250ms).
	ClientTimeout time.Duration
	// LockTTL is the replicas' prepared-transaction lock expiry (zero: 2s).
	LockTTL time.Duration
	// WALDir gives every replica a write-ahead journal under the directory
	// (site-<id>.wal). Existing journals are replayed at startup, so a
	// cluster restarted on the same directory recovers every committed
	// write without an explicit checkpoint.
	WALDir string
	// Observer attaches an observability hook to the whole cluster: every
	// replica, every client created through NewClient, and the cluster
	// itself (network counters, per-level load gauges and a live
	// theory-vs-empirical load comparison) register their metrics on its
	// registry, and client operations record traces into its recorder. Nil
	// leaves all hot paths uninstrumented.
	Observer *obs.Observer
	// TCP runs the cluster over loopback TCP with the binary codec instead
	// of the in-memory network: every message crosses a socket through the
	// same framing and read loops a deployment runs. Faults that are
	// properties of the simulated network do not exist there: New refuses
	// a non-zero Net alongside it, and Partition and Heal fail.
	TCP bool
	// MaxInflight bounds each replica's concurrently served gated requests
	// (reads, version probes and phase-one prepares; phase two is never
	// gated). Work beyond the bound is shed at once with a typed overload
	// reply — reads before prepares, commits and aborts never. Zero or less
	// keeps the replica default.
	MaxInflight int
}

// Cluster is a running replica system. All methods are safe for concurrent
// use; the replica map is immutable after New, and the mutable fields (tree,
// protocol, client list, TCP endpoints) are guarded by mu.
type Cluster struct {
	net      transport.Transport
	sim      *transport.Network // the in-memory network; nil over TCP
	replicas map[tree.SiteID]*replica.Replica
	cfg      Config

	mu      sync.RWMutex
	tree    *tree.Tree
	proto   *core.Protocol
	clients []*client.Client
	tcpEPs  []*transport.TCPEndpoint // every endpoint over TCP, for NetworkStats
	wals    []*replica.WAL
	nextCli int
	closed  bool
}

// New builds and starts a cluster for the given tree: one replica per
// physical node, all attached to a fresh network — in-memory, or loopback
// TCP under cfg.TCP.
func New(t *tree.Tree, cfg Config) (*Cluster, error) {
	if cfg.TCP && !cfg.Net.IsZero() {
		return nil, errors.New("cluster: Net configures the in-memory network, not TCP")
	}
	if cfg.ClientTimeout == 0 {
		cfg.ClientTimeout = 250 * time.Millisecond
	}
	if cfg.LockTTL == 0 {
		cfg.LockTTL = 2 * time.Second
	}
	proto, err := core.New(t)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		tree:     t,
		proto:    proto,
		replicas: make(map[tree.SiteID]*replica.Replica, t.N()),
		cfg:      cfg,
	}
	if cfg.TCP {
		c.net = transport.NewTCPNetwork()
	} else {
		c.sim = transport.NewNetwork(cfg.Seed, cfg.Net)
		c.net = c.sim
	}
	for _, site := range t.Sites() {
		ep, err := c.net.Listen(transport.Addr(site))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: register site %d: %w", site, err)
		}
		c.track(ep)
		ropts := []replica.Option{replica.WithLockTTL(cfg.LockTTL)}
		if cfg.MaxInflight > 0 {
			ropts = append(ropts, replica.WithMaxInflight(cfg.MaxInflight))
		}
		if cfg.Observer != nil {
			ropts = append(ropts, replica.WithObserver(cfg.Observer.Reg()))
		}
		r := replica.New(int(site), ep, ropts...)
		if cfg.WALDir != "" {
			w, err := attachWAL(r, cfg.WALDir, int(site))
			if err != nil {
				c.Close()
				return nil, err
			}
			c.wals = append(c.wals, w)
		}
		r.Start()
		c.replicas[site] = r
	}
	if cfg.Observer != nil {
		c.registerMetrics(cfg.Observer.Reg())
	}
	return c, nil
}

// track keeps a TCP endpoint for NetworkStats. Callers other than New hold
// mu.
func (c *Cluster) track(ep transport.Conn) {
	if tep, ok := ep.(*transport.TCPEndpoint); ok {
		c.tcpEPs = append(c.tcpEPs, tep)
	}
}

// attachWAL replays and attaches the site's write-ahead journal.
func attachWAL(r *replica.Replica, dir string, site int) (*replica.WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: wal dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("site-%d.wal", site))
	if _, err := os.Stat(path); err == nil {
		if _, err := replica.ReplayWAL(path, r.Store()); err != nil {
			return nil, fmt.Errorf("cluster: replay wal for site %d: %w", site, err)
		}
	}
	w, err := replica.OpenWAL(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: wal for site %d: %w", site, err)
	}
	r.Store().AttachJournal(w)
	return w, nil
}

// Observer returns the observer the cluster was built with (nil when
// observability is off). Components layered on top of the cluster — the
// adaptation controller — register their own metric families on it.
func (c *Cluster) Observer() *obs.Observer { return c.cfg.Observer }

// Clients returns the clients attached to this cluster.
func (c *Cluster) Clients() []*client.Client {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*client.Client, len(c.clients))
	copy(out, c.clients)
	return out
}

// Tree returns the cluster's replica tree.
func (c *Cluster) Tree() *tree.Tree {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tree
}

// Protocol returns the protocol instance bound to the tree.
func (c *Cluster) Protocol() *core.Protocol {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.proto
}

// Replica returns the replica running site id, or nil.
func (c *Cluster) Replica(site tree.SiteID) *replica.Replica { return c.replicas[site] }

// NewClient attaches a new protocol client to the cluster. Clients use
// negative transport addresses; their IDs double as the site component of
// write timestamps. The cluster supplies its timeout, seed and observer as
// defaults; opts are applied after them, so a caller can override any of
// it per client (e.g. client.WithHedgeDelay, client.WithReadRepair).
func (c *Cluster) NewClient(opts ...client.Option) (*client.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextCli++
	id := -c.nextCli
	ep, err := c.net.Dial(transport.Addr(id))
	if err != nil {
		return nil, fmt.Errorf("cluster: register client: %w", err)
	}
	c.track(ep)
	copts := []client.Option{
		client.WithTimeout(c.cfg.ClientTimeout),
		client.WithSeed(c.cfg.Seed + int64(c.nextCli)),
	}
	if c.cfg.Observer != nil {
		copts = append(copts, client.WithObserver(c.cfg.Observer))
	}
	copts = append(copts, opts...)
	cli := client.New(id, ep, c.proto, copts...)
	c.clients = append(c.clients, cli)
	return cli, nil
}

// Crash fail-stops the given site.
func (c *Cluster) Crash(site tree.SiteID) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	r.Crash()
	return nil
}

// Recover brings a crashed site back with its stable storage.
func (c *Cluster) Recover(site tree.SiteID) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	r.Recover()
	return nil
}

// Saturate arms (or, with on=false, disarms) the deterministic overload
// fault on the site: its admission gate sheds every gated request — reads,
// version probes, prepares — with a typed overload reply, while phase-two
// commits and aborts are still served. Recovering the site also disarms it.
func (c *Cluster) Saturate(site tree.SiteID, on bool) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	r.Saturate(on)
	return nil
}

// SlowSite injects d of extra service time into every gated request the
// site serves (zero clears it) — a brownout rather than a refusal.
func (c *Cluster) SlowSite(site tree.SiteID, d time.Duration) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	r.SlowBy(d)
	return nil
}

// Drain gracefully removes the site from service: new gated work is shed,
// in-flight work and prepared transactions resolve, then the replica goes
// down (stable storage intact — recovery is the usual path back). It
// returns once the site is quiesced or ctx expires.
func (c *Cluster) Drain(ctx context.Context, site tree.SiteID) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	return r.Drain(ctx)
}

// CrashLevel fail-stops every replica of the u-th physical level (of the
// current configuration).
func (c *Cluster) CrashLevel(u int) error {
	proto := c.Protocol()
	if u < 0 || u >= proto.NumPhysicalLevels() {
		return fmt.Errorf("cluster: physical level %d out of range", u)
	}
	for _, site := range proto.LevelSites(u) {
		c.replicas[site].Crash()
	}
	return nil
}

// RecoverAll recovers every crashed replica.
func (c *Cluster) RecoverAll() {
	for _, r := range c.replicas {
		r.Recover()
	}
}

// errNotSimulated is what a simulated-network fault returns over TCP.
var errNotSimulated = errors.New("cluster: partitions need the in-memory network, not over TCP")

// Partition splits the network into the given site groups. Clients not
// listed (all of them, usually) fall into the implicit extra group, so a
// partition with all clients on one side is expressed by grouping replica
// sites only. It fails over TCP.
func (c *Cluster) Partition(groups ...[]tree.SiteID) error {
	if c.sim == nil {
		return errNotSimulated
	}
	addrGroups := make([][]transport.Addr, len(groups))
	for i, g := range groups {
		addrs := make([]transport.Addr, len(g))
		for j, s := range g {
			addrs[j] = transport.Addr(s)
		}
		addrGroups[i] = addrs
	}
	c.sim.Partition(addrGroups...)
	return nil
}

// Heal removes any network partition. It fails over TCP.
func (c *Cluster) Heal() error {
	if c.sim == nil {
		return errNotSimulated
	}
	c.sim.Heal()
	return nil
}

// NetworkStats counts what the cluster's network moved: Stats on the
// in-memory network, TCP summed over every endpoint over TCP. The
// other half stays zero.
type NetworkStats struct {
	transport.Stats
	TCP transport.TCPStats
}

// NetworkStats returns the network counters.
func (c *Cluster) NetworkStats() NetworkStats {
	if c.sim != nil {
		return NetworkStats{Stats: c.sim.Stats()}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var st NetworkStats
	for _, ep := range c.tcpEPs {
		e := ep.Stats()
		st.TCP.FramesOut += e.FramesOut
		st.TCP.FramesIn += e.FramesIn
		st.TCP.InboxDrops += e.InboxDrops
		st.TCP.DecodeDrops += e.DecodeDrops
		st.TCP.Reads += e.Reads
		st.TCP.Dials += e.Dials
		st.TCP.Evictions += e.Evictions
	}
	return st
}

// Close stops all clients, replicas and the network. It is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	clients := c.clients
	c.mu.Unlock()
	for _, cli := range clients {
		cli.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
	for _, w := range c.wals {
		_ = w.Close()
	}
}
