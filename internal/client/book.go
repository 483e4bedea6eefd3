package client

import (
	"math"
	"sync"
	"time"

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
	// refusingBucket sorts past every health bucket: a site whose last reply
	// was a refusal is known to be non-serving right now, so it goes behind
	// everything else (probing it is still cheap — an instant refusal,
	// never a timeout).
	refusingBucket = 99
)

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
	lat     float64 // round-trip EWMA, nanoseconds; valid once timed > 0
	fail    float64 // failure-rate EWMA in [0,1]
	samples uint64  // contacts folded into the failure EWMA; 0 = cold
	timed   uint64  // of them, those whose round trip was folded into lat

	// refusing: the last reply was a catching-up refusal or a shed; shedding:
	// it was a shed, which turns prepares away too. Kept out of the EWMAs —
	// a refusal is neither slow nor dead, and folding it in would poison the
	// site's scores long after it rejoins.
	refusing, shedding bool
}

// score folds one contact into the failure EWMA and, unless it never left
// (rtt < 0: a failed send has no round trip), into the latency EWMA.
func (s *site) score(rtt time.Duration, failed bool) {
	f := 0.0
	if failed {
		f = 1.0
	}
	if s.samples == 0 {
		s.fail = f
	} else {
		s.fail = scoreAlpha*f + (1-scoreAlpha)*s.fail
	}
	s.samples++
	if rtt < 0 {
		return
	}
	if x := float64(rtt); s.timed == 0 {
		s.lat = x
	} else {
		s.lat = scoreAlpha*x + (1-scoreAlpha)*s.lat
	}
	s.timed++
}

// siteBook is the client's one record per replica site and the one place
// that judges whether a site is worth asking right now. The engine reads it
// through snapshot and reports every contact's outcome to observe; nothing
// else reads or writes site state. It reads no clock: a site's record is
// the sequence of outcomes booked on it. Safe for concurrent use.
type siteBook struct {
	mu    sync.Mutex
	sites map[transport.Addr]*site
	// prompt is the round trip below which a served reply proves a failing
	// site is back (the client's hedge delay: below it, a site's latency is
	// not material either).
	prompt time.Duration
}

func newSiteBook(prompt time.Duration) *siteBook {
	return &siteBook{sites: make(map[transport.Addr]*site), prompt: prompt}
}

// levelHealth is what an ordering pass learns about a level as a whole.
type levelHealth struct {
	// best is the lowest latency EWMA among the level's sites; known is
	// false while none of them has a round trip on record.
	best  time.Duration
	known bool
	// fail is the worst member's failure class: a level is as available
	// for a write as its least available member. shedding is set when some
	// member's last reply was a shed: the level's 2PC would be turned away.
	fail     int8
	shedding bool
	// demotedFront is set by orderedSites when exploration put in front of
	// the level's probe order a site the book sorts behind its front.
	demotedFront bool
}

// snapshot is the one read of the book an ordering pass makes of a level,
// under one lock: the level's health and, when order is non-nil (it then has
// len(sites)), every candidate's probe-order bucket — failure class times
// three plus latency class relative to the level's best, 0 for a cold site,
// refusingBucket for a refusing site. material is the latency below which a
// site is never deprioritized (see latBucket).
func (b *siteBook) snapshot(sites []transport.Addr, material float64, order []int8) (lv levelHealth) {
	low := math.MaxFloat64
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range sites {
		s := b.sites[a]
		if s == nil {
			continue
		}
		if s.timed > 0 && s.lat < low {
			low, lv.known = s.lat, true
		}
		lv.fail = max(lv.fail, int8(failBucket(s.fail)))
		lv.shedding = lv.shedding || s.shedding
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
		case s.refusing:
			order[i] = refusingBucket
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

// observe books the outcome of one contact: every field of the site's
// record the outcome touches, and none it does not. rtt is the contact's
// observed round-trip (for overduePrimary, how long the level had waited).
func (b *siteBook) observe(addr transport.Addr, o outcome, rtt time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sites[addr]
	if s == nil {
		s = &site{}
		b.sites[addr] = s
	}
	switch o {
	case outcomeServed:
		// A failing site that serves promptly is back: one reply clears its
		// failure class, or its level would stay last for writes for the
		// several replies a quarter-per-reply EWMA needs, which only
		// exploration and fallbacks bring. A dead site never replies, and a
		// slow one, whose lost hedge races put it there, replies late and
		// keeps its class.
		if failBucket(s.fail) == 2 && rtt < b.prompt {
			s.fail = 0
		}
		s.score(rtt, false)
		s.refusing, s.shedding = false, false
	case outcomeCatchingUp:
		s.score(rtt, false)
		s.refusing, s.shedding = true, false
	case outcomeShed:
		s.refusing, s.shedding = true, true
	case outcomeTimedOut, outcomeOverdue:
		s.score(rtt, true)
	case outcomeSendFailed:
		s.score(-1, true)
	}
}
