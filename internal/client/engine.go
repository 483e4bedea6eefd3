// The quorum engine: latency-aware site selection, hedged probes and read
// coalescing shared by the read, version-discovery and write paths.
//
// Every replica call feeds a per-site EWMA of round-trip latency and
// failure rate. Within a level, candidates are probed in the paper's
// uniform random order stable-sorted by coarse health buckets, so healthy
// replicas keep the load-optimal uniform distribution while sites with
// learned failures or latencies far above the level's best sink to the
// back. When a probe is overdue relative to the level's learned latency, a
// hedged backup probe is launched to the next candidate instead of waiting
// out the full client timeout; the first response wins and the losers are
// cancelled. All of it — every level of a read, every member of a 2PC
// round — is one state machine on the calling goroutine (assembly).
// Concurrent reads of one key through one client coalesce into one of them.
package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
)

// Engine tuning constants.
const (
	// scoreAlpha is the EWMA smoothing factor for site latency and
	// failure estimates (higher = faster adaptation).
	scoreAlpha = 0.25
	// exploreEvery makes one in N level probes promote a random candidate
	// to the front, so stale scores (a recovered or newly fast site) get
	// refreshed; with hedging on, the cost of a bad exploration is
	// bounded by the hedge delay, not the client timeout.
	exploreEvery = 16
	// latSlowFactor and latDeadFactor bound the "same speed class" bucket:
	// a site whose latency EWMA is within latSlowFactor of the level's
	// best keeps its uniform-shuffle position (preserving the paper's
	// optimal load); beyond that it is deprioritized, and beyond
	// latDeadFactor it is tried last.
	latSlowFactor = 4
	latDeadFactor = 16
)

// siteScore is one site's learned health: latency and failure EWMAs.
type siteScore struct {
	lat     float64 // round-trip EWMA, nanoseconds
	fail    float64 // failure-rate EWMA in [0,1]
	samples uint64
}

// scoreboard tracks per-site scores for one client. Safe for concurrent
// use.
type scoreboard struct {
	mu sync.Mutex
	m  map[transport.Addr]siteScore
	// refusing marks sites that answered a probe with a catching-up
	// refusal: alive but not serving reads. Cleared on the next successful
	// serve. Kept out of the latency/failure EWMAs — a refusal is neither
	// slow nor dead, and folding it in would poison the site's scores for
	// long after it rejoins.
	refusing map[transport.Addr]bool
}

func newScoreboard() *scoreboard {
	return &scoreboard{
		m:        make(map[transport.Addr]siteScore),
		refusing: make(map[transport.Addr]bool),
	}
}

// record folds one observed call into the site's EWMAs. Timeouts count as
// failures at their full observed latency; cancelled calls are never
// recorded (losing a hedge race says nothing about the site). A successful
// serve also clears the site's refusing mark.
func (s *scoreboard) record(addr transport.Addr, d time.Duration, failed bool) {
	f := 0.0
	if failed {
		f = 1.0
	}
	x := float64(d)
	s.mu.Lock()
	e := s.m[addr]
	if e.samples == 0 {
		e.lat, e.fail = x, f
	} else {
		e.lat = scoreAlpha*x + (1-scoreAlpha)*e.lat
		e.fail = scoreAlpha*f + (1-scoreAlpha)*e.fail
	}
	e.samples++
	s.m[addr] = e
	if !failed {
		delete(s.refusing, addr)
	}
	s.mu.Unlock()
}

// markRefusing records a catching-up refusal from the site.
func (s *scoreboard) markRefusing(addr transport.Addr) {
	s.mu.Lock()
	s.refusing[addr] = true
	s.mu.Unlock()
}

// isRefusing reports whether the site's last probe was refused.
func (s *scoreboard) isRefusing(addr transport.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refusing[addr]
}

// get returns the site's score and whether anything was ever recorded.
func (s *scoreboard) get(addr transport.Addr) (siteScore, bool) {
	s.mu.Lock()
	e, ok := s.m[addr]
	s.mu.Unlock()
	return e, ok && e.samples > 0
}

// siteHealth is one site's scoreboard state as seen by an ordering pass.
type siteHealth struct {
	lat      float64
	fail     float64
	known    bool
	refusing bool
}

// fill snapshots every site's health into out (len(out) == len(sites))
// under a single lock acquisition — the ordering passes run on every
// operation, so they must not take the scoreboard lock per site.
func (s *scoreboard) fill(sites []transport.Addr, out []siteHealth) {
	s.mu.Lock()
	for i, a := range sites {
		e, ok := s.m[a]
		out[i] = siteHealth{
			lat:      e.lat,
			fail:     e.fail,
			known:    ok && e.samples > 0,
			refusing: s.refusing[a],
		}
	}
	s.mu.Unlock()
}

// bestLatency returns the lowest latency EWMA among the given sites.
func (s *scoreboard) bestLatency(sites []transport.Addr) (time.Duration, bool) {
	best := math.MaxFloat64
	known := false
	s.mu.Lock()
	for _, a := range sites {
		if e, ok := s.m[a]; ok && e.samples > 0 && e.lat < best {
			best, known = e.lat, true
		}
	}
	s.mu.Unlock()
	if !known {
		return 0, false
	}
	return time.Duration(best), true
}

// failBucket coarsens a failure EWMA into three classes so that sampling
// noise cannot break the uniform strategy's load balance.
func failBucket(fail float64) int {
	switch {
	case fail < 0.25:
		return 0
	case fail < 0.5:
		return 1
	default:
		return 2
	}
}

// latBucket coarsens a latency EWMA relative to the level's best. A site
// only leaves the healthy bucket when its latency is material — at least
// the hedge delay, where probing it first would actually cost a hedge or a
// timeout. Below that, scheduling noise can make identical sites' EWMAs
// diverge by large factors, and deprioritizing on it would break the
// uniform strategy's load balance for no operational gain.
func latBucket(lat, best, material float64) int {
	switch {
	case lat < material || best <= 0 || lat <= latSlowFactor*best:
		return 0
	case lat <= latDeadFactor*best:
		return 1
	default:
		return 2
	}
}

// skipBucket sorts past every health bucket: sites whose circuit breaker
// is open or whose last probe was a catching-up refusal are known to be
// non-serving right now, so they go behind everything else (probing them
// is still cheap — a fast-fail or instant refusal, never a timeout).
const skipBucket = 99

// orderedSites appends level u's sites to dst in probe order: the paper's
// uniform shuffle stable-sorted by coarse health buckets (failure class
// first, then latency class relative to the level's best). Healthy sites of
// the same speed class stay uniformly ordered — preserving the optimal read
// load of the uniform strategy — while known-slow or failing sites are
// tried last, and open-breaker or catching-up sites last of all. One in
// exploreEvery calls promotes a random candidate to the front so scores
// cannot go permanently stale. An operation orders its levels in level
// order on its own goroutine, so a seeded client's site sequence does not
// depend on scheduling.
func (c *Client) orderedSites(dst []transport.Addr, proto *core.Protocol, u int) []transport.Addr {
	sites := proto.LevelSites(u)
	lo := len(dst)
	for _, s := range sites {
		dst = append(dst, transport.Addr(s))
	}
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
		return dst
	}
	// Scratch stays on the stack unless the level is unusually wide.
	var healthBuf [16]siteHealth
	var bucketBuf [16]int8
	health, buckets := healthBuf[:], bucketBuf[:]
	if len(out) > len(healthBuf) {
		health, buckets = make([]siteHealth, len(out)), make([]int8, len(out))
	}
	health, buckets = health[:len(out)], buckets[:len(out)]
	c.scores.fill(out, health)
	var best float64 = math.MaxFloat64
	for i := range health {
		if health[i].known && health[i].lat < best {
			best = health[i].lat
		}
	}
	material := float64(c.hedgeDelay)
	for i, a := range out {
		h := health[i]
		switch {
		case h.refusing || c.caller.BreakerState(a) == rpc.BreakerOpen:
			buckets[i] = skipBucket
		case !h.known:
			buckets[i] = 0 // cold site: treat as healthy until probed
		default:
			buckets[i] = int8(failBucket(h.fail)*3 + latBucket(h.lat, best, material))
		}
	}
	stableSortByBucket(out, buckets)
	if explore && idx > 0 {
		picked := out[idx]
		copy(out[1:idx+1], out[:idx])
		out[0] = picked
	}
	return dst
}

// orderedLevels returns physical level indices in write-attempt order: the
// paper's uniform rotation stable-sorted by each level's worst member
// failure bucket, so a level whose 2PC would stall on a known-failing
// member is tried last. Healthy levels keep the uniform rotation,
// preserving the optimal write load. (A level is as available as its least
// available member — the write quorum needs all of them — so the bucket is
// the max over members. Latency is deliberately ignored: a uniformly far
// level is still a correct and load-bearing write quorum.)
func (c *Client) orderedLevels(proto *core.Protocol) []int {
	l := proto.NumPhysicalLevels()
	c.rngMu.Lock()
	first := c.rng.Intn(l)
	c.rngMu.Unlock()
	order := make([]int, l)
	for i := range order {
		order[i] = (first + i) % l
	}
	if l < 2 {
		return order
	}
	buckets := make([]int8, l)
	for i, u := range order {
		worst := 0.0
		for _, s := range proto.LevelSites(u) {
			a := transport.Addr(s)
			if c.caller.BreakerState(a) == rpc.BreakerOpen {
				// An open breaker means the member just failed repeatedly;
				// a 2PC through this level would stall on it.
				worst = 1.0
				break
			}
			if e, ok := c.scores.get(a); ok && e.fail > worst {
				worst = e.fail
			}
		}
		buckets[i] = int8(failBucket(worst))
	}
	stableSortByBucket(order, buckets)
	return order
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
// probe), or zero — no hedging — while the level is cold or when the floor
// reaches the client timeout (the sequential fallback fires then anyway).
func (c *Client) levelHedgeDelay(sites []transport.Addr, cfg readConfig) time.Duration {
	best, known := c.scores.bestLatency(sites)
	d := max(cfg.hedgeDelay, 2*best)
	if !known || d >= c.timeout {
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
	force   bool             // contacts go through open breakers
	span    *obs.LevelSpan
	start   time.Time

	// hedgeAfter > 0 arms hedging: each time hedgeDue passes undecided, the
	// next candidate is started beside the outstanding ones.
	hedgeAfter     time.Duration
	hedgeDue       time.Time
	hedges         int
	primaryReplied bool

	// skipped lists candidates never probed because their circuit breaker
	// fast-failed the start; the rescue pass force-probes them.
	skipped []transport.Addr

	// The outcome, valid once done: the winning reply and its sender, or
	// the last candidate's error. contacts counts requests sent.
	done      bool
	responder transport.Addr
	resp      any
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
	phase string // contact label on the trace: read | version | prepare | commit | abort | ping
	// op and spanPhase are set for read-shaped phases, whose every slot
	// pass (first and rescue) is a level attempt of its own on the trace; a
	// fan-out records into the span its slots were given.
	op        *obs.Op
	spanPhase string
	// rescue lets a slot that exhausted its candidates force-probe the ones
	// its breaker had skipped: the breaker is advice for ordering and
	// fast-skipping, never grounds for declaring a site unreachable.
	rescue bool

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

// addSlot adds a race over sites and starts its first candidate. span is
// where contacts are traced (read-shaped phases open their own).
func (a *assembly) addSlot(level int, sites []transport.Addr, force bool, hedgeAfter time.Duration, span *obs.LevelSpan) {
	now := time.Now()
	if a.spanPhase != "" {
		span = a.op.Level(level, a.spanPhase)
	}
	s := slot{level: level, sites: sites, force: force, span: span, start: now}
	if hedgeAfter > 0 && len(sites) > 1 {
		s.hedgeAfter, s.hedgeDue = hedgeAfter, now.Add(hedgeAfter)
		a.wakeBy(s.hedgeDue)
	}
	a.slots = append(a.slots, s)
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
				resp, err := a.c.caller.Answered(a.contacts[r.Tag].pend, r.Payload)
				a.resolve(r.Tag, resp, err, time.Now())
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
			a.resolve(i, nil, a.c.caller.Expire(ct.pend), now)
		}
	}
	for si := range a.slots {
		s := &a.slots[si]
		if s.done || s.hedgeAfter == 0 {
			continue
		}
		if s.next == len(s.sites) {
			s.hedgeAfter = 0 // nobody left to hedge with
			continue
		}
		if !now.Before(s.hedgeDue) {
			s.hedgeDue = now.Add(s.hedgeAfter)
			// A hedge is optional retry traffic and spends a retry-budget
			// token. Denied, the overdue contact still resolves at its
			// deadline and the failure fallback takes over: the budget
			// trades tail latency for load, never availability.
			if a.c.budget.spend() {
				s.hedges++
				if a.c.instr != nil {
					a.c.instr.hedges.Inc()
				}
				a.advance(si, true, now)
			} else if a.c.instr != nil {
				a.c.instr.budgetDenied.Inc()
			}
		}
		a.wakeBy(s.hedgeDue)
	}
}

// advance starts candidates of slot si until one is in flight, and decides
// the slot when none is left and nothing is in flight. A start that fails
// on the spot (breaker fast-fail, failed send, spent deadline, closed
// caller) is a failed contact that never was in flight. Under a context
// already done only a slot's first candidate is started: an abort must go
// out even when the operation was cancelled.
func (a *assembly) advance(si int, hedge bool, now time.Time) {
	s := &a.slots[si]
	for {
		for s.next < len(s.sites) && (s.next == 0 || a.ctx.Err() == nil) {
			addr := s.sites[s.next]
			s.next++
			p, err := a.c.caller.Start(a.ctx, addr, a.req, a.inbox, len(a.contacts), s.force)
			if err == nil {
				due := now.Add(p.Timeout)
				a.contacts = append(a.contacts, contact{pend: p, slot: si, start: now, due: due, hedge: hedge, live: true})
				a.live++
				a.sent++
				s.pending++
				s.contacts++
				a.wakeBy(due)
				return
			}
			a.stray = true
			// A breaker fast-fail is not a contact — no message was sent —
			// and neither is a start on a closed caller; a failed send is.
			if !errors.Is(err, rpc.ErrBreakerOpen) && !errors.Is(err, rpc.ErrClosed) {
				a.sent++
				s.contacts++
			}
			a.record(s, addr, hedge, now, now, nil, err)
			hedge = false
		}
		if s.pending > 0 {
			return
		}
		if !a.rescue || s.force || len(s.skipped) == 0 || a.ctx.Err() != nil {
			if s.err == nil {
				s.err = fmt.Errorf("level %d has no replicas", s.level)
			}
			a.decide(s)
			return
		}
		// Rescue pass: one candidate at a time, no hedging.
		if a.spanPhase != "" {
			s.span.Done(false, s.err)
			s.span = a.op.Level(s.level, a.spanPhase)
		}
		s.sites, s.skipped, s.next, s.force, s.hedgeAfter = s.skipped, nil, 0, true, 0
	}
}

// resolve takes contact i out of flight with its outcome and moves its slot
// on: a usable reply wins it, anything else starts the next candidate.
func (a *assembly) resolve(i int, resp any, err error, now time.Time) {
	ct := &a.contacts[i]
	ct.live = false
	a.live--
	si, hedge, addr := ct.slot, ct.hedge, ct.pend.To
	s := &a.slots[si]
	s.pending--
	if a.record(s, addr, hedge, ct.start, now, resp, err) != nil {
		a.advance(si, false, now)
		return
	}
	s.responder, s.resp, s.err = addr, resp, nil
	if hedge {
		if a.c.instr != nil {
			a.c.instr.hedgeWins.Inc()
		}
		// The win itself says the primary sat overdue past the hedge delay
		// without answering: score that as a failure so later operations
		// deprioritize it. (Cancelled contacts are otherwise never scored —
		// losing a fair race says nothing — but overdue-ness does.)
		if !s.primaryReplied {
			a.c.scores.record(s.sites[0], now.Sub(s.start), true)
		}
	}
	a.cancel(si, context.Canceled, now)
}

// record books one finished contact — the site's scores and marks, the
// trace — and returns the error that makes its reply unusable, nil for a
// reply that wins the slot. A breaker fast-fail or a closed caller is no
// evidence about the site. An overload shed is scored only as a refusal:
// the site answered instantly, it is alive, and ordering it last until it
// serves again is enough. A catching-up refusal is scored like any served
// reply and then marks the site refusing.
func (a *assembly) record(s *slot, addr transport.Addr, hedge bool, start, now time.Time, resp any, err error) error {
	c := a.c
	rtt := now.Sub(start)
	if addr == s.sites[0] {
		s.primaryReplied = true
	}
	switch {
	case err == nil:
		c.scores.record(addr, rtt, false)
	case errors.Is(err, rpc.ErrClosed):
		err = ErrClosed
	case errors.Is(err, rpc.ErrBreakerOpen):
		s.skipped = append(s.skipped, addr)
	case errors.Is(err, ErrOverloaded):
		c.scores.markRefusing(addr)
		if c.instr != nil {
			c.instr.overloadSkips.Inc()
		}
	case errors.Is(err, rpc.ErrTimeout):
		c.scores.record(addr, rtt, true)
	}
	a.trace(s, addr, hedge, start, rtt, err)
	if err == nil && refused(resp) {
		c.scores.markRefusing(addr)
		err = fmt.Errorf("site %d: %w", addr, ErrCatchingUp)
	}
	if err != nil {
		s.err = err
	}
	return err
}

// refused reports whether a probe reply is a catching-up refusal.
func refused(resp any) bool {
	switch m := resp.(type) {
	case replica.ReadResp:
		return m.Refused
	case replica.VersionResp:
		return m.Refused
	}
	return false
}

// trace records one contact on the slot's span.
func (a *assembly) trace(s *slot, addr transport.Addr, hedge bool, start time.Time, rtt time.Duration, err error) {
	if !s.span.On() {
		return
	}
	phase := a.phase
	if hedge {
		phase += "-hedge"
	}
	s.span.Contact(int(addr), phase, start, rtt, err, errors.Is(err, rpc.ErrTimeout))
}

// cancel decides slot si, cancelling whatever it still has in flight.
// Cancelled contacts are never scored.
func (a *assembly) cancel(si int, why error, now time.Time) {
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
		a.trace(s, ct.pend.To, ct.hedge, ct.start, now.Sub(ct.start), why)
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
			a.cancel(si, why, now)
		}
	}
}

// decide closes a slot whose race is over.
func (a *assembly) decide(s *slot) {
	s.done = true
	if n := s.contacts - 1 - s.hedges; n > 0 && a.c.instr != nil {
		a.c.instr.siteFallbacks.Add(uint64(n))
	}
	if a.spanPhase != "" {
		s.span.Done(s.err == nil, s.err)
	}
}

// fanout sends req to every address at once — one single-candidate slot per
// member — and waits for every outcome: reply, reply deadline, or the end
// of ctx. The caller reads slot i for addrs[i] and releases the assembly.
func (c *Client) fanout(ctx context.Context, addrs []transport.Addr, span *obs.LevelSpan, phase string, req rpc.Request, force, rescue bool) *assembly {
	a := c.newAssembly(ctx, req, phase, len(addrs))
	a.rescue = rescue
	for i := range addrs {
		a.addSlot(0, addrs[i:i+1], force, 0, span)
	}
	a.run()
	return a
}

// flight is one in-progress coalesced read assembly.
type flight struct {
	done chan struct{}
	res  ReadResult
	err  error
}

// readShared coalesces concurrent reads of one key through this client
// into a single quorum assembly (singleflight): the first caller becomes
// the leader and runs the read; everyone else waits for its result. A
// follower whose own context is still live retries as leader if the shared
// attempt died of the leader's context, so one cancelled caller cannot
// fail the others.
func (c *Client) readShared(ctx context.Context, key string) (ReadResult, error) {
	for {
		c.flightMu.Lock()
		if f, ok := c.flights[key]; ok {
			c.flightMu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					if ctx.Err() != nil {
						return ReadResult{}, ctx.Err()
					}
					continue // the leader's context died, not the quorum
				}
				return c.finishCoalesced(key, f)
			case <-ctx.Done():
				return ReadResult{}, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.flightMu.Unlock()

		f.res, f.err = c.readDirect(ctx, key, c.readDefaults())
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// finishCoalesced accounts a follower's share of a coalesced read: the
// operation counts as a read (with zero contacts of its own) and records
// its trace. The value is handed off zero-copy: every follower shares the
// leader's buffer (see ReadResult.Value), which the replica store never
// aliases, so no caller can observe another's mutation through the store.
func (c *Client) finishCoalesced(key string, f *flight) (ReadResult, error) {
	op := c.traces.Start("read", key, c.id)
	if c.instr != nil {
		c.instr.coalesced.Inc()
	}
	res := f.res
	res.Contacts = 0
	c.finishRead(op, f.err, 0)
	return res, f.err
}

// readConfig is the per-operation shape of a read (or of a write's version
// discovery): whether hedged backup probes may fire and after how long.
type readConfig struct {
	hedge      bool
	hedgeDelay time.Duration
}

// readDefaults snapshots the client-level read configuration.
func (c *Client) readDefaults() readConfig {
	return readConfig{hedge: c.hedging, hedgeDelay: c.hedgeDelay}
}

// ReadOption adjusts a single Read call without reconfiguring the client.
// A read carrying any per-operation option bypasses read coalescing (its
// result may differ from the shared assembly's).
type ReadOption interface{ applyRead(*readConfig) }

type readNoHedge struct{}

func (readNoHedge) applyRead(cfg *readConfig) { cfg.hedge = false }

// ReadWithoutHedge disables hedged backup probes for this read: each level
// probes one site at a time, waiting out the full client timeout before
// falling back — the protocol's plain sequential strategy.
func ReadWithoutHedge() ReadOption { return readNoHedge{} }

type readHedgeDelay time.Duration

func (o readHedgeDelay) applyRead(cfg *readConfig) {
	cfg.hedge = true
	cfg.hedgeDelay = time.Duration(o)
}

// ReadWithHedgeDelay overrides the hedge delay for this read (and forces
// hedging on). The per-level floor of twice the best learned round-trip
// still applies.
func ReadWithHedgeDelay(d time.Duration) ReadOption { return readHedgeDelay(d) }

// writeConfig is the per-operation shape of a write.
type writeConfig struct {
	read  readConfig // version-discovery probing
	level int        // preferred first level, -1 = engine-ordered
}

// WriteOption adjusts a single Write call without reconfiguring the
// client.
type WriteOption interface{ applyWrite(*writeConfig) }

type writeToLevel int

func (o writeToLevel) applyWrite(cfg *writeConfig) { cfg.level = int(o) }

// WriteToLevel makes this write try the given physical level's quorum
// first (0-based index into the protocol's physical levels), falling back
// to the other levels only if it cannot be fully prepared — e.g. pinning a
// hot key's writes to the client's local zone.
func WriteToLevel(u int) WriteOption { return writeToLevel(u) }

type writeNoHedge struct{}

func (writeNoHedge) applyWrite(cfg *writeConfig) { cfg.read.hedge = false }

// WriteWithoutHedge disables hedged backup probes for this write's version
// discovery.
func WriteWithoutHedge() WriteOption { return writeNoHedge{} }
