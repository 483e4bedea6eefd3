// Package rpc provides the request/response plumbing protocol clients use
// over the message transport: request-ID allocation, reply routing,
// asynchronous requests (Start and its resolve step) and the blocking Call
// built on them. The protocol client (internal/client) uses it.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

// ErrClosed is returned by Call after Close.
var ErrClosed = errors.New("rpc: caller closed")

// ErrTimeout is wrapped into the error returned when a call's reply
// deadline expires, so callers can distinguish timeouts (the failure
// detector firing) from other failures with errors.Is.
var ErrTimeout = errors.New("rpc: timed out")

// Request is a protocol request: one of the wire request types, which Start
// stamps with a request ID (and the deadline) as it sends it.
type Request = wire.Request

// Reply is a started request's answer as delivered to its inbox. Tag is the
// integer the request was started with, so one inbox can serve every
// request of an operation; ID is the request ID, by which a receiver drops
// a late reply to a request it already cancelled or expired. Resp holds the
// answer by value, copied out of the served holder; one holding nothing
// (Resp.Tag 0) means the caller was closed with the request outstanding.
type Reply struct {
	Tag  int
	ID   uint64
	Resp wire.Reply
}

// Pending is a started request awaiting its resolve step. Timeout is the
// attempt's reply deadline counted from Start: the smaller of the caller's
// per-request timeout and the context's remaining budget.
type Pending struct {
	ID      uint64
	To      transport.Addr
	Timeout time.Duration
}

// StartKind says why Start sent nothing.
type StartKind int

const (
	// StartClosed: the caller was closed. Nothing reached the transport.
	StartClosed StartKind = iota + 1
	// StartDeadlineSpent: the context's deadline had passed. Nothing
	// reached the transport.
	StartDeadlineSpent
	// StartSendFailed: the transport refused the request.
	StartSendFailed
)

// StartError is a failed Start: its kind and the error that says so.
type StartError struct {
	Kind StartKind
	Err  error
}

// waiter is an outstanding request's entry in the pending map. keyed marks
// a Call's, whose answer is boxed whole, key included; the engine never
// reads a reply's key.
type waiter struct {
	inbox chan<- Reply
	tag   int
	keyed bool
}

// Caller matches replica replies to outstanding requests by request ID.
// It keeps no instruments: its one protocol caller, the client's quorum
// engine, books every contact it starts. It is safe for concurrent use.
type Caller struct {
	ep      transport.Conn
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]waiter
	closed  bool

	reqID atomic.Uint64

	stopServe func() // detaches route from the endpoint
}

// NewCaller attaches a caller to the endpoint and starts routing its replies.
func NewCaller(ep transport.Conn, timeout time.Duration) *Caller {
	c := &Caller{
		ep:      ep,
		timeout: timeout,
		pending: make(map[uint64]waiter),
	}
	c.stopServe = transport.Serve(ep, c.route)
	return c
}

// Close stops reply routing; every outstanding request is answered with an
// empty reply, which resolves to ErrClosed.
func (c *Caller) Close() {
	c.mu.Lock()
	c.closed = true
	for id, w := range c.pending {
		deliver(w, &Reply{Tag: w.tag, ID: id})
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.stopServe()
}

// deliver hands a reply to the request's inbox without ever blocking; the
// default branch guards route — over TCP it runs on the connection's read
// loop — against an inbox smaller than Start requires.
func deliver(w waiter, r *Reply) {
	select {
	case w.inbox <- *r:
	default:
	}
}

// Start sends one request — req, stamped with the allocated request ID as it
// is sent, so one request value can be fanned out to many sites, and never
// retained — and returns at once;
// the reply arrives on inbox carrying tag. The inbox must have buffer room
// for every request started on it and not yet received from it: a reply
// that finds no room is dropped. A Pending returned without a StartError
// must be resolved exactly once: Answered when its reply was received, Expire
// when Pending.Timeout passed without one, Cancel when the caller lost
// interest.
//
// The context's remaining budget bounds the attempt — a retry late in an
// operation never overshoots the operation's deadline — and rides the wire
// as the request's deadline; a spent budget fails locally before any
// message is sent. A failed start's StartError says which way it failed.
func (c *Caller) Start(ctx context.Context, to transport.Addr, req Request, inbox chan<- Reply, tag int) (Pending, *StartError) {
	return c.start(ctx, to, req, waiter{inbox: inbox, tag: tag})
}

// start is Start with the waiter the reply is routed to.
func (c *Caller) start(ctx context.Context, to transport.Addr, req Request, w waiter) (Pending, *StartError) {
	p := Pending{To: to, Timeout: c.timeout}
	var budget time.Duration
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
		if budget <= 0 {
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("site %d: deadline spent: %w", to, ErrTimeout)
			}
			return p, &StartError{Kind: StartDeadlineSpent, Err: err}
		}
		if budget < p.Timeout {
			p.Timeout = budget
		}
	}
	p.ID = c.reqID.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return p, &StartError{Kind: StartClosed, Err: ErrClosed}
	}
	c.pending[p.ID] = w
	c.mu.Unlock()

	st := wire.Stamp{ReqID: p.ID}
	if budget > 0 {
		// Round up so a sub-millisecond budget still rides as 1ms rather
		// than degenerating to "no deadline".
		st.DeadlineMillis = uint64((budget + time.Millisecond - 1) / time.Millisecond)
	}
	if err := transport.Send(c.ep, to, req, st); err != nil {
		c.forget(p.ID)
		return p, &StartError{Kind: StartSendFailed, Err: fmt.Errorf("rpc: send to %d: %w", to, err)}
	}
	return p, nil
}

// forget drops a request's pending entry: route discards a reply still on
// its way.
func (c *Caller) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Answered resolves p with the answer received for it: nil if resp is the
// site's answer to the request. An overload shed maps to an ErrOverloaded
// error carrying the site's retry-after hint; an empty reply (the caller was
// closed) yields ErrClosed.
func (c *Caller) Answered(p Pending, resp *wire.Reply) error {
	if resp.Tag == 0 {
		return ErrClosed
	}
	if resp.Tag == wire.TagOverloadedResp {
		return &overloadedError{site: p.To, retryAfter: time.Duration(resp.OverloadedResp.RetryAfterMillis) * time.Millisecond}
	}
	return nil
}

// Expire resolves p as timed out — the failure detector firing — and
// returns the ErrTimeout error naming the site.
func (c *Caller) Expire(p Pending) error {
	c.forget(p.ID)
	return fmt.Errorf("site %d: %w", p.To, ErrTimeout)
}

// Cancel resolves p as abandoned: the caller stopped waiting (its context
// ended, or another site's reply made this one moot). Over the TCP
// transport only this request is cancelled, never the multiplexed
// connection under it.
func (c *Caller) Cancel(p Pending) {
	c.forget(p.ID)
}

// replyChanPool recycles the one-reply inboxes of blocking calls. An inbox
// goes back only after its reply was received from it: then nothing else
// can be on its way to it.
var replyChanPool = sync.Pool{New: func() any { return make(chan Reply, 1) }}

// Call is Start, a wait for the reply, the attempt's timeout or context
// cancellation, and the matching resolve step. The answer comes back boxed.
func (c *Caller) Call(ctx context.Context, to transport.Addr, req Request) (any, error) {
	inbox := replyChanPool.Get().(chan Reply)
	p, fail := c.start(ctx, to, req, waiter{inbox: inbox, keyed: true})
	if fail != nil {
		return nil, fail.Err
	}
	timer := time.NewTimer(p.Timeout)
	defer timer.Stop()
	select {
	case r := <-inbox:
		replyChanPool.Put(inbox)
		if err := c.Answered(p, &r.Resp); err != nil {
			return nil, err
		}
		m := wire.Msg{Reply: r.Resp}
		return m.Box(), nil
	case <-timer.C:
		return nil, c.Expire(p)
	case <-ctx.Done():
		c.Cancel(p)
		return nil, ctx.Err()
	}
}

// Send transmits a payload without awaiting a reply (fire-and-forget).
func (c *Caller) Send(to transport.Addr, payload any) error {
	return transport.Send(c.ep, to, payload, wire.Stamp{})
}

// route hands one arrived reply to the inbox of the request it answers,
// copying the answer out of the served holder: a Call's with its key owned,
// any other's with no key at all. It never blocks, which is what lets a
// replica's read loop always finish the reply it is writing to this caller.
func (c *Caller) route(_ transport.Addr, m *wire.Msg) {
	id, ok := m.ReqID()
	if !ok {
		return
	}
	c.mu.Lock()
	w, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	if w.keyed {
		m.Own()
	} else {
		m.DropKeys()
	}
	deliver(w, &Reply{Tag: w.tag, ID: id, Resp: m.Reply})
}

// ReqIDOf extracts the request ID from any answer to an rpc request.
func ReqIDOf(payload any) (uint64, bool) {
	var m wire.Msg
	if m.Set(payload) != nil {
		return 0, false
	}
	return m.ReqID()
}
