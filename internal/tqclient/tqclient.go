// Package tqclient is a live implementation of the binary Tree Quorum
// protocol of Agrawal & El Abbadi (the paper's "BINARY" comparison
// configuration), running against the same replica servers as the
// arbitrary protocol. A quorum is a root-to-leaf path; any inaccessible
// node is replaced by quorums from both of its children. Reads take the
// maximum timestamp over the quorum; writes run two-phase commit on it.
//
// Replicas are heap-numbered over a complete binary tree: site 1 is the
// root and site i's children are 2i and 2i+1.
package tqclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
)

// ErrNoQuorum means no tree quorum could be assembled from responsive
// replicas.
var ErrNoQuorum = errors.New("tqclient: no tree quorum available")

// ErrNotFound means the quorum assembled but the key was never written.
var ErrNotFound = errors.New("tqclient: key not found")

// Option configures a Client.
type Option interface {
	apply(*Client)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) { c.timeout = time.Duration(o) }

// WithTimeout sets the per-request failure-detection deadline (default
// 250ms).
func WithTimeout(d time.Duration) Option { return timeoutOption(d) }

type seedOption int64

func (o seedOption) apply(c *Client) { c.rng = rand.New(rand.NewSource(int64(o))) }

// WithSeed fixes the path-selection randomness.
func WithSeed(seed int64) Option { return seedOption(seed) }

// Client executes tree-quorum reads and writes.
type Client struct {
	id      int
	n       int
	height  int
	timeout time.Duration
	caller  *rpc.Caller

	rngMu sync.Mutex
	rng   *rand.Rand

	txID atomic.Uint64
}

// New creates a client for a complete binary tree of the given height
// (n = 2^(height+1) − 1 replicas at sites 1..n).
func New(id int, ep transport.Conn, height int, opts ...Option) (*Client, error) {
	if height < 0 || height > 25 {
		return nil, fmt.Errorf("tqclient: height %d out of range [0,25]", height)
	}
	c := &Client{
		id:      id,
		n:       1<<(height+1) - 1,
		height:  height,
		timeout: 250 * time.Millisecond,
		rng:     rand.New(rand.NewSource(int64(id))),
	}
	for _, opt := range opts {
		opt.apply(c)
	}
	c.caller = rpc.NewCaller(ep, c.timeout)
	return c, nil
}

// N returns the number of replicas.
func (c *Client) N() int { return c.n }

// Close stops the client's reply routing.
func (c *Client) Close() { c.caller.Close() }

// ReadResult is the outcome of a tree-quorum read.
type ReadResult struct {
	Value []byte
	TS    replica.Timestamp
	Found bool
	// Quorum is the assembled quorum's size; Contacts counts all probes
	// including failed ones.
	Quorum   int
	Contacts int
}

// WriteResult is the outcome of a tree-quorum write.
type WriteResult struct {
	TS       replica.Timestamp
	Quorum   int
	Contacts int
}

// Read assembles a quorum and returns the most recently written value seen
// on it.
func (c *Client) Read(ctx context.Context, key string) (ReadResult, error) {
	var res ReadResult
	q, contacts, err := c.assemble(ctx)
	res.Contacts = contacts
	if err != nil {
		return res, err
	}
	res.Quorum = len(q)
	for _, site := range q {
		resp, err := c.caller.Call(ctx, site, replica.ReadReq{Key: key})
		res.Contacts++
		if err != nil {
			return res, fmt.Errorf("%w: member %d vanished mid-read: %v", ErrNoQuorum, site, err)
		}
		rr, ok := resp.(replica.ReadResp)
		if !ok {
			return res, fmt.Errorf("tqclient: unexpected response %T", resp)
		}
		if rr.Found && (!res.Found || rr.TS.After(res.TS)) {
			res.Found, res.Value, res.TS = true, rr.Value, rr.TS
		}
	}
	if !res.Found {
		return res, ErrNotFound
	}
	return res, nil
}

// Write assembles a quorum, discovers the highest version on it, and
// installs a copy of value (replicas keep the slice a commit carries) on
// every member with two-phase commit.
func (c *Client) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	value = bytes.Clone(value)
	var res WriteResult
	q, contacts, err := c.assemble(ctx)
	res.Contacts = contacts
	if err != nil {
		return res, err
	}
	res.Quorum = len(q)

	// Version discovery on the quorum (it intersects every past write
	// quorum, so the maximum version is current).
	var max replica.Timestamp
	for _, site := range q {
		resp, err := c.caller.Call(ctx, site, replica.VersionReq{Key: key})
		res.Contacts++
		if err != nil {
			return res, fmt.Errorf("%w: member %d vanished mid-write: %v", ErrNoQuorum, site, err)
		}
		vr, ok := resp.(replica.VersionResp)
		if !ok {
			return res, fmt.Errorf("tqclient: unexpected response %T", resp)
		}
		if vr.Found && vr.TS.After(max) {
			max = vr.TS
		}
	}
	ts := replica.Timestamp{Version: max.Version + 1, Site: c.id}
	txID := c.txID.Add(1)

	// Phase 1.
	for i, site := range q {
		resp, err := c.caller.Call(ctx, site, replica.PrepareReq{TxID: txID, Key: key, TS: ts})
		res.Contacts++
		ok := err == nil
		if ok {
			pr, isPrep := resp.(replica.PrepareResp)
			ok = isPrep && pr.OK
		}
		if !ok {
			for _, done := range q[:i] {
				_, _ = c.caller.Call(ctx, done, replica.AbortReq{TxID: txID, Key: key})
			}
			return res, fmt.Errorf("%w: prepare failed at %d", ErrNoQuorum, site)
		}
	}
	// Phase 2.
	for _, site := range q {
		_, _ = c.caller.Call(ctx, site, replica.CommitReq{TxID: txID, Key: key, Value: value, TS: ts})
	}
	res.TS = ts
	return res, nil
}

// assemble builds a tree quorum: a root-leaf path, substituting quorums
// from both children for any unresponsive node. It returns the quorum's
// member addresses and the number of liveness probes spent.
func (c *Client) assemble(ctx context.Context) ([]transport.Addr, int, error) {
	probes := 0
	var gather func(site int) ([]transport.Addr, error)
	gather = func(site int) ([]transport.Addr, error) {
		alive := false
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		probes++
		if _, err := c.caller.Call(ctx, transport.Addr(site), replica.PingReq{}); err == nil {
			alive = true
		}
		left, right := 2*site, 2*site+1
		isLeaf := left > c.n

		if alive {
			if isLeaf {
				return []transport.Addr{transport.Addr(site)}, nil
			}
			// Try one random child's path, falling back to the other.
			first, second := left, right
			c.rngMu.Lock()
			if c.rng.Intn(2) == 0 {
				first, second = right, left
			}
			c.rngMu.Unlock()
			if sub, err := gather(first); err == nil {
				return append([]transport.Addr{transport.Addr(site)}, sub...), nil
			}
			sub, err := gather(second)
			if err != nil {
				return nil, err
			}
			return append([]transport.Addr{transport.Addr(site)}, sub...), nil
		}
		if isLeaf {
			return nil, fmt.Errorf("%w: leaf %d down", ErrNoQuorum, site)
		}
		// Dead interior node: need quorums from BOTH children.
		ls, err := gather(left)
		if err != nil {
			return nil, err
		}
		rs, err := gather(right)
		if err != nil {
			return nil, err
		}
		return append(ls, rs...), nil
	}
	q, err := gather(1)
	if err != nil {
		return nil, probes, err
	}
	return q, probes, nil
}
