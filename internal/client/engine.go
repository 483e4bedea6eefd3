// The quorum engine: latency-aware site selection and hedged probes shared
// by the read, version-discovery and write paths.
//
// Every contact's outcome goes into the site book (book.go), the client's
// one record per site. Within a level, candidates are probed in the paper's
// uniform random order stable-sorted by the book's coarse health buckets, so
// healthy replicas keep the load-optimal uniform distribution while sites
// with learned failures or latencies far above the level's best sink to the
// back. When a probe is overdue relative to the level's learned latency, a
// hedged backup probe is launched to the next candidate instead of waiting
// out the full client timeout; the first response wins and the losers are
// cancelled. All of it — every level of a read, every member of a 2PC
// round — is one state machine on the calling goroutine (assembly).
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// exploreEvery makes one in N level probes promote a random candidate to
// the front, so stale scores (a recovered or newly fast site) get refreshed.
// With hedging on, a promoted site the book sorts behind the level's front —
// failing or slow — is hedged at the level's floor rather than after the
// hedge delay (see probeLevels), so exploring it costs a read about twice
// the level's best round trip.
const exploreEvery = 16

// orderedSites appends level u's sites to dst in probe order: the paper's
// uniform shuffle stable-sorted by coarse health buckets (failure class
// first, then latency class relative to the level's best). Healthy sites of
// the same speed class stay uniformly ordered — preserving the optimal read
// load of the uniform strategy — while known-slow or failing sites are
// tried last, and refusing sites last of all. One in
// exploreEvery calls promotes a random candidate to the front so scores
// cannot go permanently stale. An operation orders its levels in level
// order on its own goroutine, so a seeded client's site sequence does not
// depend on scheduling. The level's health comes back with the order (the
// zero value for a one-site level, which has nothing to sort or hedge),
// demotedFront set when the promoted candidate sorts behind the front, in
// a worse health bucket than the level's best candidate. A refusing
// candidate does not count: it answers at once.
func (c *Client) orderedSites(dst []transport.Addr, lt *levelTable, u int) ([]transport.Addr, levelHealth) {
	lo := len(dst)
	dst = append(dst, lt.addrs[u]...)
	out := dst[lo:]
	c.rngMu.Lock()
	c.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	explore, idx := false, 0
	if len(out) >= 2 {
		if explore = c.rng.Intn(exploreEvery) == 0; explore {
			idx = c.rng.Intn(len(out))
		}
	}
	c.rngMu.Unlock()
	if len(out) < 2 {
		return dst, levelHealth{}
	}
	// Scratch stays on the stack unless the level is unusually wide.
	var bucketBuf [16]int8
	buckets := bucketBuf[:]
	if len(out) > len(bucketBuf) {
		buckets = make([]int8, len(out))
	}
	buckets = buckets[:len(out)]
	lv := c.book.snapshot(out, float64(c.hedgeDelay), buckets)
	stableSortByBucket(out, buckets)
	if explore && idx > 0 {
		picked := out[idx]
		lv.demotedFront = buckets[idx] != refusingBucket && buckets[idx] > buckets[0]
		copy(out[1:idx+1], out[:idx])
		out[0] = picked
	}
	return dst, lv
}

// orderedLevels appends physical level indices to order in write-attempt
// order: the paper's uniform rotation stable-sorted by each level's worst
// member failure bucket, so a level whose 2PC would stall on a known-failing
// member is tried last, and one with a shedding member after that: its
// prepare would be turned away. Healthy levels keep the uniform rotation,
// preserving the optimal write load. (A level is as available as its least
// available member — the write quorum needs all of them — so the bucket is
// the max over members. Latency is deliberately ignored: a uniformly far
// level is still a correct and load-bearing write quorum.) A pin ≥ 0 is the
// caller's choice of first level: the rotation starts there and is not sorted.
func (c *Client) orderedLevels(lt *levelTable, order []int, pin int) []int {
	l, first := len(lt.addrs), pin
	if pin < 0 {
		c.rngMu.Lock()
		first = c.rng.Intn(l)
		c.rngMu.Unlock()
	}
	for i := 0; i < l; i++ {
		order = append(order, (first+i)%l)
	}
	if l < 2 || pin >= 0 {
		return order
	}
	var bucketBuf [maxStackLevels]int8
	buckets := bucketBuf[:0]
	for _, u := range order {
		lv := c.book.snapshot(lt.addrs[u], 0, nil)
		if lv.shedding {
			lv.fail = refusingBucket
		}
		buckets = append(buckets, lv.fail)
	}
	stableSortByBucket(order, buckets)
	return order
}

// maxStackLevels sizes a write's on-stack level-order scratch; more levels spill to the heap.
const maxStackLevels = 16

// levelTable is a protocol with each physical level's members as transport
// addresses, converted once per protocol, not per operation. Read-only.
type levelTable struct {
	proto *core.Protocol
	addrs [][]transport.Addr
	sites int // members over all levels
}

func newLevelTable(proto *core.Protocol) *levelTable {
	lt := &levelTable{proto: proto, addrs: make([][]transport.Addr, proto.NumPhysicalLevels())}
	for u := range lt.addrs {
		sites := proto.LevelSites(u)
		lt.addrs[u] = make([]transport.Addr, len(sites))
		for i, s := range sites {
			lt.addrs[u][i] = transport.Addr(s)
		}
		lt.sites += len(sites)
	}
	return lt
}

// stableSortByBucket stable-sorts items by ascending bucket, moving the two
// slices in tandem. Candidate lists are a handful of entries, so insertion
// sort beats sort.SliceStable here and, unlike it, allocates nothing — this
// runs on every read and write.
func stableSortByBucket[T any](items []T, buckets []int8) {
	for i := 1; i < len(items); i++ {
		it, b := items[i], buckets[i]
		j := i
		for j > 0 && buckets[j-1] > b {
			items[j], buckets[j] = items[j-1], buckets[j-1]
			j--
		}
		items[j], buckets[j] = it, b
	}
}

// levelHedgeDelay decides whether and when this level may hedge: the
// configured delay, floored at twice the level's best learned round-trip
// (a uniformly slow level — e.g. a far zone — must not hedge on every
// probe), or zero — no hedging — with hedging disabled, while the level is
// cold, or when the floor reaches the client timeout (the sequential
// fallback fires then anyway).
func (c *Client) levelHedgeDelay(lv levelHealth) time.Duration {
	d := max(c.hedgeDelay, 2*lv.best)
	if !c.hedging || !lv.known || d >= c.timeout {
		return 0
	}
	return d
}

// slot is one independent race inside an assembly, won by the first usable
// reply: one physical level of a read or version discovery (its sites in
// probe order), or one member of a 2PC fan-out (a single candidate).
type slot struct {
	level   int
	sites   []transport.Addr // candidates in probe order
	next    int              // next candidate to start
	pending int              // contacts in flight
	span    *obs.LevelSpan

	// hedgeAfter > 0 arms hedging: each time hedgeDue passes undecided, the
	// next candidate is started beside the outstanding ones. The first hedge
	// may be due sooner than hedgeAfter (see addSlot).
	hedgeAfter time.Duration
	hedgeDue   time.Time
	hedges     int

	// The outcome, valid once done: the winning reply, held by value, and
	// its sender, or the last candidate's error. contacts counts requests
	// sent.
	done      bool
	responder transport.Addr
	resp      wire.Reply
	err       error
	contacts  int
}

// contact is one request in flight.
type contact struct {
	pend  rpc.Pending
	slot  int
	start time.Time
	due   time.Time // reply deadline
	hedge bool
	live  bool
}

// assembly is the quorum engine's state machine: one phase of an operation
// — a read quorum, a version discovery, one 2PC round — run to completion
// on the calling goroutine. Every slot starts its first candidate; run then
// sits in one select over the reply inbox, one timer armed for the nearest
// hedge-due or reply-deadline instant, and the context, and each event
// moves one slot (DESIGN.md §4b has the transition table). An assembly is
// recycled through assemblyPool, timer, inbox and slices included.
type assembly struct {
	c     *Client
	ctx   context.Context
	req   rpc.Request
	phase string // contact label on the trace: read | version | prepare | commit
	// op and spanPhase are set for read-shaped phases, whose every slot is
	// a level attempt of its own on the trace; a fan-out records into the
	// span its slots were given.
	op        *obs.Op
	spanPhase string

	slots    []slot
	contacts []contact // append-only: a reply's tag is its contact's index
	sites    []transport.Addr
	live     int // contacts in flight
	sent     int // requests handed to the transport: the paper's unit of cost

	inbox chan rpc.Reply
	timer *time.Timer
	wake  time.Time // the instant the timer is armed for; zero when it is not
	// stray is set when a request ended any other way than its reply being
	// received (failed start, timeout, cancellation): a reply may still
	// land in the inbox, so the inbox is not recycled.
	stray bool
}

var assemblyPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &assembly{timer: t}
}}

// newAssembly prepares an assembly sending req to at most candidates sites.
func (c *Client) newAssembly(ctx context.Context, req rpc.Request, phase string, candidates int) *assembly {
	a := assemblyPool.Get().(*assembly)
	a.c, a.ctx, a.req, a.phase = c, ctx, req, phase
	if cap(a.inbox) < candidates {
		a.inbox = make(chan rpc.Reply, candidates)
	}
	return a
}

// release recycles the assembly. Its slots are invalid afterwards.
func (a *assembly) release() {
	if !a.timer.Stop() {
		select {
		case <-a.timer.C:
		default:
		}
	}
	clear(a.slots)
	clear(a.contacts)
	inbox := a.inbox
	if a.stray {
		inbox = nil
	}
	*a = assembly{slots: a.slots[:0], contacts: a.contacts[:0], sites: a.sites[:0], inbox: inbox, timer: a.timer}
	assemblyPool.Put(a)
}

// addSlot adds a race over sites and starts its first candidate. The first
// hedge is due after firstHedge, every later one hedgeAfter after the last;
// hedgeAfter 0 turns hedging off. span is where contacts are traced
// (read-shaped phases open their own).
func (a *assembly) addSlot(now time.Time, level int, sites []transport.Addr, firstHedge, hedgeAfter time.Duration, span *obs.LevelSpan) {
	if a.spanPhase != "" {
		span = a.op.Level(level, a.spanPhase)
	}
	a.slots = append(a.slots, slot{}) // filled in place: a slot holds a reply by value
	s := &a.slots[len(a.slots)-1]
	s.level, s.sites, s.span = level, sites, span
	if hedgeAfter > 0 && len(sites) > 1 {
		s.hedgeAfter, s.hedgeDue = hedgeAfter, now.Add(firstHedge)
		a.wakeBy(s.hedgeDue)
	}
	a.advance(len(a.slots)-1, false, now)
}

// wakeBy makes sure the timer fires no later than t.
func (a *assembly) wakeBy(t time.Time) {
	if a.wake.IsZero() || t.Before(a.wake) {
		a.wake = t
		a.timer.Reset(time.Until(t))
	}
}

// run drives the assembly until every slot is decided.
func (a *assembly) run() {
	for a.live > 0 {
		select {
		case r := <-a.inbox:
			// A reply to a contact already resolved another way is dropped.
			if r.Tag < len(a.contacts) && a.contacts[r.Tag].live && a.contacts[r.Tag].pend.ID == r.ID {
				err := a.c.caller.Answered(a.contacts[r.Tag].pend, &r.Resp)
				a.resolve(r.Tag, replyOutcome(&r.Resp, err), &r.Resp, err, time.Now())
			}
		case <-a.timer.C:
			a.onTimer(time.Now())
		case <-a.ctx.Done():
			a.abandon(a.ctx.Err())
		}
	}
}

// onTimer expires every contact past its reply deadline, starts every hedge
// that is due, and re-arms the timer for what is due next.
func (a *assembly) onTimer(now time.Time) {
	a.wake = time.Time{}
	for i := 0; i < len(a.contacts); i++ {
		switch ct := &a.contacts[i]; {
		case !ct.live:
		case now.Before(ct.due):
			a.wakeBy(ct.due)
		default:
			a.stray = true
			a.resolve(i, outcomeTimedOut, nil, a.c.caller.Expire(ct.pend), now)
		}
	}
	for si := range a.slots {
		s := &a.slots[si]
		if s.done || s.hedgeAfter == 0 || s.next == len(s.sites) {
			continue // not hedging, or nobody left to hedge with
		}
		if !now.Before(s.hedgeDue) {
			s.hedgeDue = now.Add(s.hedgeAfter)
			s.hedges++
			a.c.instr.hedges.Inc()
			a.advance(si, true, now)
		}
		a.wakeBy(s.hedgeDue)
	}
}

// advance starts candidates of slot si until one is in flight, and decides
// the slot when none is left and nothing is in flight. A start that fails
// on the spot (failed send, spent deadline, closed caller) is a failed
// contact that never was in flight. Under a context already done only a
// slot's first candidate is started: the slot then fails with the context's
// error, a spent deadline booked once per slot, and no fallback or hedge
// goes out for an operation nobody waits for.
func (a *assembly) advance(si int, hedge bool, now time.Time) {
	s := &a.slots[si]
	for s.next < len(s.sites) && (s.next == 0 || a.ctx.Err() == nil) {
		addr := s.sites[s.next]
		s.next++
		p, fail := a.c.caller.Start(a.ctx, addr, a.req, a.inbox, len(a.contacts))
		if fail == nil {
			due := now.Add(p.Timeout)
			a.contacts = append(a.contacts, contact{pend: p, slot: si, start: now, due: due, hedge: hedge, live: true})
			a.live++
			a.sent++
			s.pending++
			s.contacts++
			a.c.instr.calls.Inc()
			a.wakeBy(due)
			return
		}
		a.stray = true
		o := outcomeClosed
		switch fail.Kind {
		case rpc.StartDeadlineSpent:
			o = outcomeCancelled // nothing was sent
		case rpc.StartSendFailed:
			o = outcomeSendFailed
		}
		// Only a failed send is a contact: a closed caller or a spent
		// deadline sent nothing.
		if o == outcomeSendFailed {
			a.sent++
			s.contacts++
		}
		a.record(s, addr, hedge, now, now, o, nil, fail.Err)
		hedge = false
	}
	if s.pending > 0 {
		return
	}
	if s.err == nil {
		s.err = fmt.Errorf("level %d has no replicas", s.level)
	}
	a.decide(s)
}

// replyOutcome classifies what rpc.Caller.Answered made of a reply.
func replyOutcome(resp *wire.Reply, err error) outcome {
	switch {
	case err == nil && refused(resp):
		return outcomeCatchingUp
	case err == nil:
		return outcomeServed
	case errors.Is(err, rpc.ErrClosed):
		return outcomeClosed
	default:
		return outcomeShed
	}
}

// resolve takes contact i out of flight with its outcome and moves its slot
// on: a served reply wins it, and the slot keeps a copy; anything else
// starts the next candidate. resp is nil when no reply arrived.
func (a *assembly) resolve(i int, o outcome, resp *wire.Reply, err error, now time.Time) {
	ct := &a.contacts[i]
	ct.live = false
	a.live--
	si, hedge, addr := ct.slot, ct.hedge, ct.pend.To
	s := &a.slots[si]
	s.pending--
	if a.record(s, addr, hedge, ct.start, now, o, resp, err) != nil {
		a.advance(si, false, now)
		return
	}
	s.responder, s.resp, s.err = addr, *resp, nil
	if hedge {
		a.c.instr.hedgeWins.Inc()
	}
	a.cancel(si, context.Canceled, now, hedge)
}

// record books one contact that ended in a reply, an expiry or a failed
// start — its outcome on the site book and the contact series, the contact
// on the trace — and returns the error that makes its reply unusable, nil
// for a served reply, which wins the slot. (A contact cancelled in flight
// is booked by cancel.)
func (a *assembly) record(s *slot, addr transport.Addr, hedge bool, start, now time.Time, o outcome, resp *wire.Reply, err error) error {
	rtt := now.Sub(start)
	a.c.book.observe(addr, o, rtt)
	a.c.instr.contact(o, rtt)
	if o == outcomeClosed {
		err = ErrClosed
	}
	a.trace(s, addr, hedge, start, rtt, resp, err, o == outcomeTimedOut)
	if o == outcomeCatchingUp {
		err = fmt.Errorf("site %d: %w", addr, ErrCatchingUp)
	}
	if err != nil {
		s.err = err
	}
	return err
}

// refused reports whether a probe reply is a catching-up refusal.
func refused(resp *wire.Reply) bool {
	switch resp.Tag {
	case wire.TagReadResp:
		return resp.ReadResp.Refused
	case wire.TagVersionResp:
		return resp.VersionResp.Refused
	}
	return false
}

// contact books a recorded contact on the contact series: every answered or
// expired call is timed; a shed, an expiry and a spent deadline are
// counted, and a failed send is a call (it reached the transport). In
// record an outcomeCancelled is always a start whose deadline was spent.
func (in *instruments) contact(o outcome, rtt time.Duration) {
	switch o {
	case outcomeShed:
		in.overloads.Inc()
	case outcomeTimedOut:
		in.timeouts.Inc()
	case outcomeSendFailed:
		in.calls.Inc()
		return
	case outcomeCancelled:
		in.deadlineSkips.Inc()
		return
	case outcomeClosed:
		return
	}
	in.callDur.Observe(rtt)
}

// trace records one contact on the slot's span (resp nil: no reply). A read
// answered with the timestamp alone is labelled read-ts.
func (a *assembly) trace(s *slot, addr transport.Addr, hedge bool, start time.Time, rtt time.Duration, resp *wire.Reply, err error, timedOut bool) {
	if !s.span.On() {
		return
	}
	phase := a.phase
	if resp != nil && resp.Tag == wire.TagReadResp && resp.ReadResp.Found {
		if req, ok := a.req.(replica.ReadReq); ok && req.ValueOmitted(resp.ReadResp.TS) {
			phase = "read-ts"
		}
	}
	if hedge {
		phase += "-hedge"
	}
	s.span.Contact(int(addr), phase, start, rtt, err, timedOut)
}

// cancel decides slot si, cancelling whatever it still has in flight. That
// says nothing about the cancelled sites — losing a fair race is no evidence
// — with one exception: when a hedge won the level and the primary still in
// flight sat unanswered past the hedge delay, it is booked as overdue so
// later operations deprioritize it. (A primary hedged early, at the level's
// floor, that lost sooner than that is no evidence either.)
func (a *assembly) cancel(si int, why error, now time.Time, hedgeWon bool) {
	s := &a.slots[si]
	for i := 0; s.pending > 0; i++ {
		ct := &a.contacts[i]
		if !ct.live || ct.slot != si {
			continue
		}
		a.c.caller.Cancel(ct.pend)
		ct.live = false
		a.live--
		s.pending--
		a.stray = true
		o := outcomeCancelled
		if hedgeWon && ct.pend.To == s.sites[0] && now.Sub(ct.start) >= s.hedgeAfter {
			o = outcomeOverdue
		}
		a.c.book.observe(ct.pend.To, o, now.Sub(ct.start))
		a.trace(s, ct.pend.To, ct.hedge, ct.start, now.Sub(ct.start), nil, why, false)
	}
	a.decide(s)
}

// abandon ends the assembly because its context did: nothing in flight is
// waited for, and every undecided slot fails with the context's error.
func (a *assembly) abandon(why error) {
	now := time.Now()
	for si := range a.slots {
		if s := &a.slots[si]; !s.done {
			s.err = why
			a.cancel(si, why, now, false)
		}
	}
}

// decide closes a slot whose race is over.
func (a *assembly) decide(s *slot) {
	s.done = true
	if n := s.contacts - 1 - s.hedges; n > 0 {
		a.c.instr.siteFallbacks.Add(uint64(n))
	}
	if a.spanPhase != "" {
		s.span.Done(s.err == nil, s.err)
	}
}

// fanout sends req to every address at once — one single-candidate slot per
// member — and waits for every outcome: reply, reply deadline, or the end
// of ctx. The caller reads slot i for addrs[i] and releases the assembly.
func (c *Client) fanout(ctx context.Context, addrs []transport.Addr, span *obs.LevelSpan, phase string, req rpc.Request) *assembly {
	a := c.newAssembly(ctx, req, phase, len(addrs))
	for i := range addrs {
		a.addSlot(time.Now(), 0, addrs[i:i+1], 0, 0, span)
	}
	a.run()
	return a
}
