package client

import (
	"context"
	"fmt"
	"time"

	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// ReadResult is the outcome of a successful read quorum operation.
type ReadResult struct {
	// Value is the winning replica's value and must be treated as
	// read-only: on the in-memory network it is the very slice the
	// replica stores (values are immutable once written).
	Value []byte
	TS    replica.Timestamp
	Found bool
	// Contacts is the number of replica requests the operation sent.
	Contacts int
}

// Read performs the protocol's read operation on key: it contacts one
// responsive physical node of every physical level (candidates ordered by
// the quorum engine's learned site scores, with hedged backup probes when
// the outstanding probe is overdue) and returns the value with the most
// recent timestamp. It fails with ErrReadUnavailable when some level has no
// responsive replica, and ErrNotFound when the quorum assembled but nobody
// stores the key.
//
// Every call assembles its own quorum, even beside a concurrent read of the
// same key: only a quorum assembled after a write was acknowledged is sure
// to meet that write's level.
func (c *Client) Read(ctx context.Context, key string) (ReadResult, error) {
	r := c.begin(opRead, key)
	res, err := c.readQuorum(ctx, key, r.op)
	if err == nil && !res.Found {
		err = ErrNotFound
	}
	r.contacts = res.Contacts
	c.end(&r, err)
	return res, err
}

// readQuorum runs a read quorum and returns the newest reply. It sends the
// floor recorded for key and checks the winner against it: at or above the
// floor it carried its value; below it the floor was wrong for this quorum
// (a shared table entry, a member that missed a write this client saw) and
// the quorum is read once more without one, as if there were no table.
func (c *Client) readQuorum(ctx context.Context, key string, op *obs.Op) (ReadResult, error) {
	h := keyHash(key)
	req := replica.ReadReq{Key: key, Floor: c.floors.get(h)}
	res, err := c.probeLevels(ctx, req, "read", "read-quorum", op)
	if err == nil && res.Found && req.ValueOmitted(res.TS) {
		c.metrics.readRefetches.Add(1)
		c.instr.readRefetches.Inc()
		hinted := res.Contacts
		res, err = c.probeLevels(ctx, replica.ReadReq{Key: key}, "read", "read-refetch", op)
		res.Contacts += hinted
	}
	if err == nil && res.Found {
		c.floors.put(h, res.TS)
	}
	return res, err
}

// discoverVersion is the version-discovery quorum of a write. It neither
// consults nor feeds the floor table: a write's floor is its clean commit.
func (c *Client) discoverVersion(ctx context.Context, key string, op *obs.Op) (ReadResult, error) {
	return c.probeLevels(ctx, replica.VersionReq{Key: key, ForWrite: true}, "version", "version-discovery", op)
}

// probeLevels gathers one response to req per physical level: one assembly
// with a slot per level, its sites engine-ordered and hedged when warranted.
// When op is live, every level probe is a LevelAttempt labelled spanPhase on
// it. The contact count covers every level, failed ones included; the
// operation it serves books it, a read's as read contacts and a write's
// discovery as write contacts.
func (c *Client) probeLevels(ctx context.Context, req rpc.Request, phase, spanPhase string, op *obs.Op) (ReadResult, error) {
	lt := c.levels.Load()
	levels, total := len(lt.addrs), lt.sites
	a := c.newAssembly(ctx, req, phase, total)
	defer a.release()
	a.op, a.spanPhase = op, spanPhase
	if cap(a.sites) < total {
		a.sites = make([]transport.Addr, 0, total)
	}
	for u := 0; u < levels; u++ {
		lo, now := len(a.sites), time.Now()
		var lv levelHealth
		a.sites, lv = c.orderedSites(a.sites, lt, u)
		// An explored site the book holds failing or slow is most likely
		// still so: its hedge is due at the level's floor, so the read does
		// not wait the hedge delay for it, while a recovered site, answering
		// at the level's usual speed, still wins and its reply is scored.
		hedge := c.levelHedgeDelay(lv)
		first := hedge
		if lv.demotedFront && hedge > 0 {
			first = 2 * lv.best
		}
		a.addSlot(now, u, a.sites[lo:len(a.sites):len(a.sites)], first, hedge, nil)
	}
	a.run()

	var res ReadResult
	res.Contacts = a.sent
	for u := range a.slots {
		s := &a.slots[u]
		if s.err != nil {
			return res, fmt.Errorf("%w: level %d: %w", ErrReadUnavailable, u, s.err)
		}
		ts, value, found, err := decodeProbe(&s.resp)
		if err != nil {
			return res, fmt.Errorf("%w: level %d: site %d: %w", ErrReadUnavailable, u, s.responder, err)
		}
		if found && (!res.Found || ts.After(res.TS)) {
			res.TS, res.Value, res.Found = ts, value, true
		}
	}
	return res, nil
}

// decodeProbe extracts a read or version probe's reply.
func decodeProbe(resp *wire.Reply) (ts replica.Timestamp, value []byte, found bool, err error) {
	switch resp.Tag {
	case wire.TagReadResp:
		return resp.ReadResp.TS, resp.ReadResp.Value, resp.ReadResp.Found, nil
	case wire.TagVersionResp:
		return resp.VersionResp.TS, nil, resp.VersionResp.Found, nil
	default:
		return ts, nil, false, fmt.Errorf("unexpected response tag %d", resp.Tag)
	}
}
