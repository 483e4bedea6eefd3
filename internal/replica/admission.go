package replica

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Default admission-gate sizing. The limit is deliberately generous: the
// gate should be invisible until a site is genuinely saturated, so ordinary
// unit tests and sim traces never see a shed.
const (
	// DefaultMaxInflight bounds concurrently served gated requests per
	// replica (reads, version probes and prepares; never phase two).
	DefaultMaxInflight = 64
	// admitRetryAfterUnit scales the retry-after hint by the requests in
	// flight: a shed on an otherwise idle site hints one unit. The hint is a
	// pure function of the count, so deterministic schedules produce
	// deterministic hints.
	admitRetryAfterUnit = 2 * time.Millisecond
)

// prepareReserve returns the slice of the in-flight limit only prepares may
// use: reads saturate earlier, so phase-one work still finds a slot on a
// busy-but-healthy site (shed priority: reads before prepares). The reserve
// never consumes the whole limit — reads must keep at least one slot, or a
// tiny limit would shed every read.
func prepareReserve(limit int) int {
	reserve := limit / 4
	if reserve < 1 {
		reserve = 1
	}
	if reserve >= limit {
		reserve = limit - 1
	}
	return reserve
}

// gate is the replica's admission controller: a count of the gated requests
// in flight. A request takes a slot and is served on the goroutine that
// delivered it, or is shed at once with a typed OverloadedResp; nothing
// waits for a slot. Only the slowsite= fault defers work: a slowed request
// keeps its slot and is served from a timer. Phase-two traffic (commit,
// abort) and liveness/sync traffic never pass the gate: a prepared site must
// always hear the transaction's outcome, so overload never refuses it.
type gate struct {
	// readLimit bounds reads and read-side version probes, shed first (a
	// shed read costs the client one skip to a sibling site); limit bounds
	// prepares, which alone may use the reserve between the two (a shed
	// prepare is a clean abort, never an in-doubt write).
	readLimit, limit int64
	inflight         atomic.Int64

	// slowed holds the timers of deferred requests not yet due; slowWG
	// counts the deferred requests not yet finished. Stop cancels the one
	// and waits out the other.
	slowMu sync.Mutex
	slowed map[*time.Timer]struct{}
	slowWG sync.WaitGroup
}

func newGate(maxInflight int) *gate {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	return &gate{
		readLimit: int64(maxInflight - prepareReserve(maxInflight)),
		limit:     int64(maxInflight),
		slowed:    make(map[*time.Timer]struct{}),
	}
}

// gated passes a read, version probe or prepare through the gate: it takes
// a slot and serves m right here, defers it by the slowsite= delay, or
// sheds it at once — refused while the site is saturated or draining, busy
// when limit slots are taken — hinting (in flight + 1) × 2 ms. The slot
// is taken before the flags are read, so every request a quiescing Drain
// did not count sees the drain.
func (r *Replica) gated(from transport.Addr, m *wire.Msg, reqID uint64, limit int64) {
	g := r.gate
	n := g.inflight.Add(1)
	reason := "busy"
	switch {
	case r.saturated.Load() || r.draining.Load():
		reason = "refused"
	case n <= limit:
		if d := time.Duration(r.slowBy.Load()); d > 0 {
			r.serveAfter(d, from, *m)
			return
		}
		r.serveGated(from, m)
		g.inflight.Add(-1)
		return
	}
	g.inflight.Add(-1)
	r.shed(from, reqID, reason, time.Duration(n)*admitRetryAfterUnit)
}

// serveAfter serves an admitted request d from now, from a timer, and then
// releases its slot; a replica that went down meanwhile stays silent. It
// takes m by value and owns its key: the served holder is refilled, and the
// frame its key was a view of overwritten, before the timer fires.
func (r *Replica) serveAfter(d time.Duration, from transport.Addr, m wire.Msg) {
	m.Own()
	g := r.gate
	g.slowMu.Lock()
	defer g.slowMu.Unlock()
	g.slowWG.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		g.slowMu.Lock()
		delete(g.slowed, t)
		g.slowMu.Unlock()
		if r.Health() != HealthDown {
			r.serveGated(from, &m)
		}
		g.inflight.Add(-1)
		g.slowWG.Done()
	})
	g.slowed[t] = struct{}{}
}

// stop cancels the deferred requests not yet due and waits out those being
// served.
func (g *gate) stop() {
	g.slowMu.Lock()
	for t := range g.slowed {
		if t.Stop() {
			g.inflight.Add(-1)
			g.slowWG.Done()
		}
		delete(g.slowed, t)
	}
	g.slowMu.Unlock()
	g.slowWG.Wait()
}

// shed answers a gated request with the typed overload reply and counts it.
// reason is refused (saturated or draining) or busy (over the limit).
func (r *Replica) shed(to transport.Addr, reqID uint64, reason string, retryAfter time.Duration) {
	r.shedMu.Lock()
	shed := r.shedBy[reason]
	if shed == nil {
		if shed = r.instr.sheds.With(r.instr.site, reason); shed == nil {
			shed = new(obs.Counter) // unobserved: a private counter
		}
		r.shedBy[reason] = shed
	}
	r.shedMu.Unlock()
	shed.Inc()
	r.reply(to, wire.OverloadedResp{ReqID: reqID, RetryAfterMillis: uint64(retryAfter / time.Millisecond)})
}

// Saturate forces (or, with on=false, stops forcing) the admission gate to
// shed every gated request immediately — the sim's deterministic overload
// fault. Phase-two commits and aborts are still served.
func (r *Replica) Saturate(on bool) {
	r.saturated.Store(on)
}

// SlowBy injects d of extra service time into every gated request (zero
// clears it) — the sim's slowsite= fault, a brownout rather than a refusal.
// A slowed request holds its slot for the delay; commits are never slowed.
func (r *Replica) SlowBy(d time.Duration) {
	r.slowBy.Store(int64(d))
}

// Drain gracefully removes the replica from service: new gated work (reads,
// version probes, prepares) is shed immediately, in-flight work and every
// prepared transaction are allowed to resolve, and the replica then stops
// the one way a replica stops, by Crash, so Recover is the way back. Every
// acknowledged write is in the journal and survives.
//
// Drain returns once the replica is quiesced, or with ctx's error if the
// deadline expires first (the replica stays draining either way; prepared
// transactions it is still waiting on resolve via commit, abort or lock
// expiry).
func (r *Replica) Drain(ctx context.Context) error {
	r.draining.Store(true)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if r.gate.inflight.Load() == 0 && !r.store.locked(time.Now()) {
			r.Crash()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
