package replica

import (
	"context"
	"sync"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// opClass partitions the sheddable request types by shed priority. Phase-two
// traffic (commit, abort) and liveness/sync traffic never pass through the
// gate at all: a prepared site must always hear the transaction's outcome,
// so overload can delay phase two but never refuse it.
type opClass int

const (
	// classRead: reads and read-side version probes — shed first. A shed
	// read costs the client one skip to a sibling site.
	classRead opClass = iota
	// classPrepare: phase-one prepares — shed only when even the reserved
	// headroom is gone. A shed prepare is a clean abort, never an in-doubt
	// write.
	classPrepare
	numClasses
)

// Default admission-gate sizing. The limits are deliberately generous: the
// gate should be invisible until a site is genuinely saturated, so ordinary
// unit tests and sim traces never see a shed.
const (
	// DefaultMaxInflight bounds concurrently served gated requests per
	// replica (reads, version probes and prepares; never phase two).
	DefaultMaxInflight = 64
	// defaultQueueFactor sizes each class's wait queue relative to the
	// in-flight limit.
	defaultQueueFactor = 2
	// admitRetryAfterUnit scales the retry-after hint by queue occupancy:
	// an empty queue hints one unit, a full one proportionally more. The
	// hint is a pure function of queue state, so deterministic schedules
	// produce deterministic hints.
	admitRetryAfterUnit = 2 * time.Millisecond
)

// prepareReserve returns the slice of the in-flight limit only prepares may
// use: reads saturate earlier, so phase-one work still finds a slot on a
// busy-but-healthy site (shed priority: reads before prepares). The reserve
// never consumes the whole limit — reads must keep at least one slot, or a
// read-only workload on a tiny limit would queue forever with no prepare
// traffic to drain it.
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

// gateItem is one queued (or running) gated request.
type gateItem struct {
	from  transport.Addr
	reqID uint64
	class opClass
	// budget is the request's remaining deadline at arrival (zero = none);
	// enq anchors the expiry check on dequeue.
	budget time.Duration
	enq    time.Time
	serve  func()
}

// gate is the replica's bounded in-flight admission controller. Requests of
// the gated classes either start immediately (a slot is free), wait in a
// small per-class FIFO, or are shed with a typed OverloadedResp. Serving
// happens on worker goroutines — the store and lock table are already
// mutex-guarded, so gated handlers are safe off the delivering goroutine —
// which is what makes "in flight" a real quantity to bound.
type gate struct {
	r        *Replica
	limit    int
	reserve  int
	queueCap int

	mu       sync.Mutex
	inflight int
	queues   [numClasses][]gateItem

	wg sync.WaitGroup
}

func newGate(r *Replica, maxInflight int) *gate {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	return &gate{
		r:        r,
		limit:    maxInflight,
		reserve:  prepareReserve(maxInflight),
		queueCap: maxInflight * defaultQueueFactor,
	}
}

// classLimit is the in-flight ceiling for the class: reads stop short of
// the prepare reserve.
func (g *gate) classLimit(class opClass) int {
	if class == classRead {
		return g.limit - g.reserve
	}
	return g.limit
}

// depth reports the total queued work (both classes).
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queues[classRead]) + len(g.queues[classPrepare])
}

// idle reports whether nothing gated is running or queued.
func (g *gate) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight == 0 && len(g.queues[classRead]) == 0 && len(g.queues[classPrepare]) == 0
}

// tryAdmit is the gate's fast path: when the site is healthy (not
// saturated, draining or browning out) and a slot is free with nothing
// queued ahead, it claims the slot and the caller serves the request
// inline on its own goroutine — no closure, no worker, no handoff. The
// caller must call finish() afterwards. This is what keeps the gate
// invisible on the hot path: an unloaded site pays one atomic load and one
// uncontended mutex over the ungated code.
func (g *gate) tryAdmit(class opClass) bool {
	if g.r.saturated.Load() || g.r.draining.Load() || g.r.slowBy.Load() != 0 {
		return false
	}
	g.mu.Lock()
	if g.inflight < g.classLimit(class) &&
		len(g.queues[classPrepare]) == 0 && len(g.queues[classRead]) == 0 {
		g.inflight++
		g.mu.Unlock()
		return true
	}
	g.mu.Unlock()
	return false
}

// finish releases an inline-admitted slot, first draining any work that
// queued behind it (same loop as a worker's run).
func (g *gate) finish() {
	for {
		next, ok := g.next()
		if !ok {
			return
		}
		g.serveOne(next)
	}
}

// submit admits, queues, or sheds one gated request. serve runs on a worker
// goroutine once a slot is free. Dispatch only reaches submit when tryAdmit
// declined — under pressure or fault injection — so the closure and the
// goroutine are off the hot path.
func (g *gate) submit(from transport.Addr, reqID uint64, class opClass, deadlineMillis uint64, serve func()) {
	if g.r.saturated.Load() || g.r.draining.Load() {
		// Deterministic overload (the sim's saturate= verb) and drain both
		// refuse all gated work outright.
		g.r.shed(from, reqID, "refused", g.retryAfterHint(class))
		return
	}
	item := gateItem{from: from, reqID: reqID, class: class, serve: serve}
	if deadlineMillis > 0 {
		item.budget = time.Duration(deadlineMillis) * time.Millisecond
		item.enq = time.Now()
	}
	g.mu.Lock()
	if g.inflight < g.classLimit(class) {
		g.inflight++
		g.wg.Add(1)
		g.mu.Unlock()
		go g.run(item)
		return
	}
	if len(g.queues[class]) >= g.queueCap {
		g.mu.Unlock()
		g.r.shed(from, reqID, "queue_full", g.retryAfterHint(class))
		return
	}
	g.queues[class] = append(g.queues[class], item)
	g.updateQueueDepth()
	g.mu.Unlock()
}

// retryAfterHint derives the overload reply's backoff hint from queue
// occupancy — a pure function of gate state, so deterministic runs shed
// with deterministic hints.
func (g *gate) retryAfterHint(class opClass) time.Duration {
	g.mu.Lock()
	queued := len(g.queues[class])
	g.mu.Unlock()
	return time.Duration(queued+1) * admitRetryAfterUnit
}

// run serves the admitted item, then keeps draining the wait queues until
// they are empty, preferring prepares (phase-one work beats read work on a
// recovering-from-pressure site).
func (g *gate) run(item gateItem) {
	defer g.wg.Done()
	g.serveOne(item)
	for {
		next, ok := g.next()
		if !ok {
			return
		}
		g.serveOne(next)
	}
}

// serveOne executes one admitted request, honoring the slowsite= delay and
// dropping (not answering) work addressed to a crashed replica.
func (g *gate) serveOne(item gateItem) {
	if d := time.Duration(g.r.slowBy.Load()); d > 0 {
		time.Sleep(d)
	}
	if g.r.Health() == HealthDown {
		return // fail-stop: no replies while down
	}
	item.serve()
}

// next pops the oldest queued item, prepares first. Items whose deadline
// budget expired while they waited are shed ("expired") and skipped — the
// caller has already given up on them. Returns ok=false (releasing the
// slot) when both queues are empty.
func (g *gate) next() (gateItem, bool) {
	now := time.Now()
	for {
		g.mu.Lock()
		var item gateItem
		found := false
		for _, class := range [...]opClass{classPrepare, classRead} {
			if len(g.queues[class]) > 0 {
				item = g.queues[class][0]
				g.queues[class] = g.queues[class][1:]
				found = true
				break
			}
		}
		if !found {
			g.inflight--
			g.updateQueueDepth()
			g.mu.Unlock()
			return gateItem{}, false
		}
		g.updateQueueDepth()
		g.mu.Unlock()
		if item.budget > 0 && now.Sub(item.enq) > item.budget {
			g.r.shed(item.from, item.reqID, "expired", 0)
			continue
		}
		return item, true
	}
}

// updateQueueDepth publishes the combined queue depth; callers hold g.mu.
func (g *gate) updateQueueDepth() {
	g.r.instr.admitQueueDepth.Set(float64(len(g.queues[classRead]) + len(g.queues[classPrepare])))
}

// shed answers a gated request with the typed overload reply and counts it.
// reason is refused (gate closed: saturated or draining), queue_full, or
// expired (budget spent while queued).
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

// Saturated reports whether the deterministic overload fault is armed.
func (r *Replica) Saturated() bool { return r.saturated.Load() }

// SlowBy injects d of extra service time into every gated request (zero
// clears it) — the sim's slowsite= fault, a brownout rather than a refusal.
func (r *Replica) SlowBy(d time.Duration) {
	r.slowBy.Store(int64(d))
}

// Draining reports whether a drain is in progress or complete.
func (r *Replica) Draining() bool { return r.draining.Load() }

// Drain gracefully removes the replica from service: new gated work (reads,
// version probes, prepares) is shed immediately, in-flight work and every
// prepared transaction are allowed to resolve, and the replica then leaves
// the admission path by going HealthDown — the same lifecycle state a crash
// produces, so recovery (instant or catch-up) is the existing path back.
// Stable storage is untouched: every acknowledged write survives.
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
		if r.quiesced() {
			r.health.Store(int32(HealthDown))
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// quiesced reports whether no gated work is running or queued and no
// unexpired prepared transaction still holds a lock.
func (r *Replica) quiesced() bool {
	if !r.gate.idle() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for _, l := range r.locks {
		if now.Before(l.expires) {
			return false
		}
	}
	return true
}
