package client

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
)

// Site-book tuning constants.
const (
	// scoreAlpha is the EWMA smoothing factor for site latency and
	// failure estimates (higher = faster adaptation).
	scoreAlpha = 0.25
	// latSlowFactor and latDeadFactor bound the "same speed class" bucket:
	// a site whose latency EWMA is within latSlowFactor of the level's
	// best keeps its uniform-shuffle position (preserving the paper's
	// optimal load); beyond that it is deprioritized, and beyond
	// latDeadFactor it is tried last.
	latSlowFactor = 4
	latDeadFactor = 16
	// breakerThreshold is the run of consecutive failed contacts that opens
	// a site's circuit breaker. It then stays open for 2×timeout, doubled by
	// every failed contact while open up to breakerMaxDoublings doublings;
	// each interval is jittered over [½d, 1½d).
	breakerThreshold    = 4
	breakerMaxDoublings = 4
	// skipBucket sorts past every health bucket: sites whose circuit breaker
	// is open or whose last reply was a refusal are known to be non-serving
	// right now, so they go behind everything else (probing them is still
	// cheap — a local skip or an instant refusal, never a timeout).
	skipBucket = 99
)

// BreakerState is the observable state of one site's circuit breaker.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: contacts flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: contacts are skipped locally until the cooldown expires
	// (forced contacts go through).
	BreakerOpen
	// BreakerHalfOpen: the cooldown expired; the next contact is admitted as
	// the single probe whose outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String renders the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// outcome is how one contact with a site ended — the only input that moves
// a site's record (DESIGN.md §4b has the outcome × field table).
type outcome int

const (
	// outcomeServed: the site answered with a usable reply.
	outcomeServed outcome = iota
	// outcomeCatchingUp: it answered a read or version probe with a
	// catching-up refusal — alive and as fast as a serve, but not serving.
	outcomeCatchingUp
	// outcomeShed: its admission gate answered with a load-shed reply.
	outcomeShed
	// outcomeTimedOut: the reply deadline passed — the failure detector firing.
	outcomeTimedOut
	// outcomeSendFailed: the transport refused the request.
	outcomeSendFailed
	// outcomeCancelled: the engine stopped waiting (another site won, the context
	// ended, the deadline was spent before anything was sent). It says
	// nothing about the site.
	outcomeCancelled
	// outcomeClosed: the client was closed with the request outstanding.
	outcomeClosed
	// outcomeOverdue: a hedge won the level while this site, the primary,
	// sat unanswered past the hedge delay.
	outcomeOverdue
)

// site is everything the client knows about one replica site.
type site struct {
	lat     float64 // round-trip EWMA, nanoseconds
	fail    float64 // failure-rate EWMA in [0,1]
	samples uint64  // contacts folded into the EWMAs; 0 = cold

	// refusing: the last reply was a catching-up refusal or a shed. Kept out
	// of the EWMAs — a refusal is neither slow nor dead, and folding it in
	// would poison the site's scores long after it rejoins.
	refusing bool

	// The circuit breaker. Half-open is derived, not stored: an open
	// breaker whose cooldown has expired admits a single probe.
	open     bool
	run      int           // consecutive failures while closed
	cooldown time.Duration // current (pre-jitter) open interval
	until    time.Time     // when the open interval ends
	probing  bool          // the half-open probe is in flight
}

// state derives the breaker's observable state.
func (s *site) state(now time.Time) BreakerState {
	switch {
	case !s.open:
		return BreakerClosed
	case now.Before(s.until) || s.probing:
		return BreakerOpen
	default:
		return BreakerHalfOpen
	}
}

// score folds one contact into the EWMAs.
func (s *site) score(rtt time.Duration, failed bool) {
	x, f := float64(rtt), 0.0
	if failed {
		f = 1.0
	}
	if s.samples == 0 {
		s.lat, s.fail = x, f
	} else {
		s.lat = scoreAlpha*x + (1-scoreAlpha)*s.lat
		s.fail = scoreAlpha*f + (1-scoreAlpha)*s.fail
	}
	s.samples++
}

// siteBook is the client's one record per replica site and the one place
// that judges whether a site is worth asking right now. The engine reads it
// through snapshot, asks admit before every contact and reports every
// contact's outcome to observe; nothing else reads or writes site state.
// Safe for concurrent use.
type siteBook struct {
	breaker  bool          // false: admit always says yes, states reports nil
	cooldown time.Duration // a breaker's first open interval

	mu    sync.Mutex
	sites map[transport.Addr]*site
	// rng jitters breaker cooldowns: a stream of its own, so that breaker
	// activity cannot shift the quorum-selection sequence.
	rng *rand.Rand

	// Optional instruments.
	transitions *obs.CounterVec // destination state: open | half_open | closed
	fastFails   *obs.Counter
}

func newSiteBook(breaker bool, timeout time.Duration, seed int64, reg *obs.Registry) *siteBook {
	if seed ^= 0x51f15eed; seed == 0 {
		seed = 1
	}
	return &siteBook{
		breaker:  breaker,
		cooldown: 2 * timeout,
		sites:    make(map[transport.Addr]*site),
		rng:      rand.New(rand.NewSource(seed)),
		// The families keep the names they had when the breaker lived in rpc.
		transitions: reg.CounterVec("arbor_rpc_breaker_transitions_total",
			"Circuit-breaker state transitions, by destination state (open counts re-opens after failed probes).",
			"state"),
		fastFails: reg.Counter("arbor_rpc_breaker_fastfails_total",
			"Contacts skipped locally because the destination site's circuit breaker was open."),
	}
}

// levelHealth is what an ordering pass learns about a level as a whole.
type levelHealth struct {
	// best is the lowest latency EWMA among the level's sites; known is
	// false while all of them are cold.
	best  time.Duration
	known bool
	// fail is the worst member's failure class, 2 when any member's breaker
	// is open: a level is as available for a write as its least available
	// member, and a 2PC through an open-breaker member would stall on it.
	fail int8
}

// snapshot is the one read of the book an ordering pass makes of a level,
// under one lock: the level's health and, when order is non-nil (it then has
// len(sites)), every candidate's probe-order bucket — failure class times
// three plus latency class relative to the level's best, 0 for a cold site,
// skipBucket for an open breaker or a refusing site. material is the latency
// below which a site is never deprioritized (see latBucket).
func (b *siteBook) snapshot(now time.Time, sites []transport.Addr, material float64, order []int8) (lv levelHealth) {
	low := math.MaxFloat64
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range sites {
		s := b.sites[a]
		if s == nil {
			continue
		}
		if s.samples > 0 && s.lat < low {
			low, lv.known = s.lat, true
		}
		if s.state(now) == BreakerOpen {
			lv.fail = 2
		}
		lv.fail = max(lv.fail, int8(failBucket(s.fail)))
	}
	if lv.known {
		lv.best = time.Duration(low)
	}
	if order == nil {
		return lv
	}
	for i, a := range sites {
		order[i] = 0 // a cold site counts as healthy until probed
		switch s := b.sites[a]; {
		case s == nil:
		case s.refusing || s.state(now) == BreakerOpen:
			order[i] = skipBucket
		case s.samples > 0:
			order[i] = int8(failBucket(s.fail)*3 + latBucket(s.lat, low, material))
		}
	}
	return lv
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

// admit decides whether the site may be contacted now. A closed breaker
// admits; an open one skips — no message, no timeout — until its cooldown
// has expired, then admits exactly one contact as the half-open probe.
// force goes through an open breaker without taking the probe slot: for
// contacts that must be attempted whatever the site's history (phase-two
// commits, rescue passes). Their outcome feeds the record like any other.
func (b *siteBook) admit(now time.Time, addr transport.Addr, force bool) bool {
	if !b.breaker || force {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sites[addr]
	if s == nil || !s.open {
		return true
	}
	if now.Before(s.until) || s.probing {
		b.fastFails.Inc()
		return false
	}
	s.probing = true
	b.transitions.With("half_open").Inc()
	return true
}

// observe books the outcome of one contact: every field of the site's
// record the outcome touches, and none it does not. rtt is the contact's
// observed round-trip (for overduePrimary, how long the level had waited).
func (b *siteBook) observe(now time.Time, addr transport.Addr, o outcome, rtt time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sites[addr]
	if s == nil {
		s = &site{}
		b.sites[addr] = s
	}
	switch o {
	case outcomeServed:
		s.score(rtt, false)
		s.refusing = false
		b.replied(s)
	case outcomeCatchingUp:
		s.score(rtt, false)
		s.refusing = true
		b.replied(s)
	case outcomeShed:
		s.refusing = true
		b.replied(s)
	case outcomeTimedOut:
		s.score(rtt, true)
		b.failed(s, now)
	case outcomeSendFailed:
		b.failed(s, now)
	case outcomeCancelled, outcomeClosed:
		s.probing = false
	case outcomeOverdue:
		s.score(rtt, true)
		s.probing = false
	}
}

// replied is breaker success — any reply proves the site alive: the failure
// run ends and an open breaker closes.
func (b *siteBook) replied(s *site) {
	s.probing, s.run = false, 0
	if s.open {
		s.open, s.cooldown = false, 0
		b.transitions.With("closed").Inc()
	}
}

// failed is breaker failure: while closed it advances the failure run
// toward the threshold; while open (a failed probe or forced contact) it
// doubles the cooldown, up to its cap.
func (b *siteBook) failed(s *site, now time.Time) {
	s.probing = false
	switch {
	case !b.breaker:
		return
	case s.open:
		s.cooldown = min(2*s.cooldown, b.cooldown<<breakerMaxDoublings)
	default:
		if s.run++; s.run < breakerThreshold {
			return
		}
		s.open, s.cooldown = true, b.cooldown
	}
	// Jittered over [½d, 1½d) so synchronized failures do not re-probe in
	// lockstep.
	d := s.cooldown
	if d > 0 {
		d = d/2 + time.Duration(b.rng.Int63n(int64(d)))
	}
	s.until = now.Add(d)
	b.transitions.With("open").Inc()
}

// states snapshots every known site's breaker state; nil with the breaker
// disabled.
func (b *siteBook) states(now time.Time) map[transport.Addr]BreakerState {
	if !b.breaker {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[transport.Addr]BreakerState, len(b.sites))
	for a, s := range b.sites {
		out[a] = s.state(now)
	}
	return out
}
