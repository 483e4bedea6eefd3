package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// WriteResult is the outcome of a successful write quorum operation.
type WriteResult struct {
	// TS is the timestamp the value was installed with.
	TS replica.Timestamp
	// Level is the physical level (0-based index into the protocol's
	// physical levels) whose replicas form the write quorum.
	Level int
	// Contacts counts the replicas the operation accessed — the unit of
	// the paper's communication cost: version discovery plus every
	// replica a prepare was sent to (including aborted level attempts).
	// Second-phase commit/abort messages go to replicas already counted
	// by their prepare and are not counted again.
	Contacts int
}

// Write performs the protocol's write operation: it discovers the highest
// stored version through a version-read quorum (hedged by the quorum
// engine like a read), increments it, and runs two-phase commit on all
// physical nodes of one physical level. Levels are tried in the paper's
// uniform rotation, with levels containing a known-failing member
// deprioritized (their 2PC would stall on a timeout). What is sent is a copy
// of value: replicas on a by-reference transport store the very slice a
// commit carries.
func (c *Client) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	lt := c.levels.Load()
	var orderBuf [maxStackLevels]int
	return c.write(ctx, key, bytes.Clone(value), lt, c.orderedLevels(lt, orderBuf[:0], -1))
}

// WriteAt performs a write preferring the given physical level's quorum
// (0-based index into the protocol's physical levels), falling back to the
// other levels only if that level cannot be fully prepared. Pinning hot
// keys' writes to a specific level (e.g. the client's local zone in a
// geo-replicated layout) trades the uniform strategy's balanced load for
// locality. A level outside the protocol's is an error.
func (c *Client) WriteAt(ctx context.Context, key string, value []byte, level int) (WriteResult, error) {
	lt := c.levels.Load()
	if level < 0 || level >= len(lt.addrs) {
		return WriteResult{}, fmt.Errorf("client: level %d outside [0,%d)", level, len(lt.addrs))
	}
	var orderBuf [maxStackLevels]int
	return c.write(ctx, key, bytes.Clone(value), lt, c.orderedLevels(lt, orderBuf[:0], level))
}

// write runs the write protocol trying levels in the given order.
func (c *Client) write(ctx context.Context, key string, value []byte, lt *levelTable, order []int) (WriteResult, error) {
	r := c.begin(opWrite, key)
	// Phase 0 (§3.2.2): obtain the highest version number. This needs a
	// read-shaped quorum, so a write inherits the read operation's
	// availability requirement for its version-discovery step.
	ver, err := c.discoverVersion(ctx, key, r.op)
	r.contacts = ver.Contacts
	if err != nil {
		err = fmt.Errorf("%w: version discovery: %w", ErrWriteUnavailable, err)
	}
	items := [1]commitItem{{key: key, value: value, ts: replica.Timestamp{Version: ver.TS.Version + 1, Site: c.id}}}
	level, err := c.commit(ctx, &r, lt, order, items[:], err)
	res := WriteResult{Contacts: r.contacts}
	if level >= 0 {
		res.TS, res.Level = items[0].ts, level
	}
	return res, err
}

// commit is the one commit driver of Write and Txn.Commit. They hand it
// their items after version discovery, whose contacts r holds and whose
// failure, already wrapped, is err. It runs a level's 2PC down order until
// one commits (a nil order is drawn here, after discovery), adds the
// prepares to r's contacts, raises the floors on a clean commit, wraps any
// other failure (ErrTxnConflict for a transaction, else ErrWriteUnavailable)
// and ends the operation. level is where the decision was commit, cleanly or
// in doubt, and -1 when there was none.
func (c *Client) commit(ctx context.Context, r *opRun, lt *levelTable, order []int, items []commitItem, err error) (level int, _ error) {
	level = -1
	if err == nil {
		var orderBuf [maxStackLevels]int
		if order == nil {
			order = c.orderedLevels(lt, orderBuf[:0], -1)
		}
		var u, n int
		u, n, err = c.tryLevels(ctx, order, func(u int) (int, error) {
			return c.commitLevel(ctx, lt.addrs[u], u, items, r.op)
		})
		r.contacts += n
		switch {
		case err == nil:
			level = u
			for _, it := range items {
				c.floors.put(keyHash(it.key), it.ts) // every member of the level has it: reads need no older value
			}
		case errors.Is(err, ErrInDoubt):
			level = u // no floor: a read through a member that missed it would refetch
		case r.kind == opTxn:
			err = fmt.Errorf("%w: %w", ErrTxnConflict, err)
		default:
			err = fmt.Errorf("%w: %w", ErrWriteUnavailable, err)
		}
	}
	c.end(r, err)
	return level, err
}

// tryLevels attempts a 2PC on each level of order in turn until one commits
// — cleanly, or in doubt (the decision was commit: retrying elsewhere would
// double-write) — and returns that level, the contacts of every attempt,
// and the last attempt's error. A fallback to the next level backs off
// first — the failed attempt usually means timeouts or contention, and an
// immediate retry storm only feeds it. An overloaded member's retry-after
// hint floors the sleep.
func (c *Client) tryLevels(ctx context.Context, order []int, attempt func(u int) (contacts int, err error)) (level, contacts int, err error) {
	for i, u := range order {
		if i > 0 {
			floor, _ := rpc.RetryAfter(err)
			if c.backoff(ctx, i-1, floor) != nil {
				return u, contacts, err
			}
		}
		var n int
		n, err = attempt(u)
		contacts += n
		if err == nil || errors.Is(err, ErrInDoubt) || ctx.Err() != nil {
			return u, contacts, err
		}
	}
	return 0, contacts, err
}

// commitItem is one key of a two-phase commit: its prepare locks key at ts,
// its commit installs value.
type commitItem struct {
	key   string
	value []byte
	ts    replica.Timestamp
}

// commitLevel runs two-phase commit of items over addrs, every physical node
// of level u, recording the attempt (prepare, commit and abort contacts) on
// the trace: it prepares each item on every member in turn, aborts the
// items prepared so far on the first refusal, and once all are prepared
// pushes every commit. contacts is every prepare sent; phase two targets
// the same members and is not counted again.
func (c *Client) commitLevel(ctx context.Context, addrs []transport.Addr, u int, items []commitItem, op *obs.Op) (contacts int, err error) {
	txID := c.txID.Add(1)
	span := op.Level(u, "write-2pc")

	// Phase 1: prepare each item everywhere, in parallel.
	for i := range items {
		n, err := c.prepareAll(ctx, addrs, span, replica.PrepareReq{TxID: txID, Key: items[i].key, TS: items[i].ts})
		contacts += n
		if err != nil {
			// Release whatever we locked and report the level as unusable.
			// The aborts are one-way: nothing reads an AbortResp, and a
			// member the abort does not reach drops the lock when it expires.
			if contacts > 0 { // a level no prepare reached holds no lock
				now := time.Now()
				for _, it := range items[:i+1] {
					for _, addr := range addrs {
						serr := c.send(addr, replica.AbortReq{TxID: txID, Key: it.key})
						span.Contact(int(addr), "abort", now, 0, serr, false)
					}
				}
			}
			err = fmt.Errorf("level %d key %q: %w", u, items[i].key, err)
			span.Done(false, err)
			return contacts, err
		}
	}

	// Phase 2: every member prepared every item — the transaction is
	// committed, so a commit not acknowledged, even for want of time, leaves
	// the outcome in doubt, never unavailable.
	acked := true
	for _, it := range items {
		acked = c.pushCommit(ctx, addrs, span, replica.CommitReq{TxID: txID, Key: it.key, Value: it.value, TS: it.ts}) && acked
	}
	if !acked {
		err = fmt.Errorf("level %d: %w", u, ErrInDoubt)
	}
	span.Done(err == nil, err)
	return contacts, err
}

// send transmits a failed prepare's abort one-way, booked on
// arbor_rpc_sends_total. Its request ID is 0, which is never registered, so
// the caller drops whatever the replica answers.
func (c *Client) send(to transport.Addr, req rpc.Request) error {
	c.instr.sends.Inc()
	return c.caller.Send(to, req)
}

// prepareAll is phase one of 2PC: it sends the prepare to every member at
// once and returns the number of contacts made and the first failure — a
// transport error or a refused prepare — or nil when every member is
// prepared.
func (c *Client) prepareAll(ctx context.Context, addrs []transport.Addr, span *obs.LevelSpan, req replica.PrepareReq) (contacts int, err error) {
	a := c.fanout(ctx, addrs, span, "prepare", req)
	defer a.release()
	for i := range a.slots {
		s := &a.slots[i]
		err := s.err
		if err == nil {
			switch pr := &s.resp.PrepareResp; {
			case s.resp.Tag != wire.TagPrepareResp:
				err = fmt.Errorf("unexpected response tag %d", s.resp.Tag)
			case !pr.OK:
				err = fmt.Errorf("prepare refused: %s", pr.Reason)
			}
		}
		if err != nil {
			return a.sent, fmt.Errorf("site %d: %w", addrs[i], err)
		}
	}
	return a.sent, nil
}

// pushCommit is phase two for one key: every member of addrs is sent the
// commit once, and it reports whether all of them acknowledged it. One that
// did not, or whose journal refused it (CommitResp.OK false), leaves the
// write in doubt: the decision is durable on every replica that did
// acknowledge, and lock expiry plus anti-entropy finish the stragglers.
// Under a context already done nothing is sent.
func (c *Client) pushCommit(ctx context.Context, addrs []transport.Addr, span *obs.LevelSpan, req replica.CommitReq) (acked bool) {
	if ctx.Err() != nil {
		return false
	}
	a := c.fanout(ctx, addrs, span, "commit", req)
	defer a.release()
	for i := range a.slots {
		if s := &a.slots[i]; s.err != nil || s.resp.Tag != wire.TagCommitResp || !s.resp.CommitResp.OK {
			return false
		}
	}
	return true
}
