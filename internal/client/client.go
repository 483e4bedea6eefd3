// Package client executes read and write operations of the arbitrary
// tree-structured replica control protocol against simulated replicas.
//
// A read contacts one physical node of every physical level (retrying the
// level's other nodes on timeout) and returns the value with the most
// recent timestamp. A write discovers the highest version, then runs
// two-phase commit on all physical nodes of one physical level, falling
// back to other levels when a level cannot be assembled — exactly the
// quorum shapes of §3.2 of the paper.
package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/rpc"
	"arbor/internal/transport"
)

// Operation errors.
var (
	// ErrReadUnavailable means some physical level had no responsive
	// replica, so no read quorum could be assembled.
	ErrReadUnavailable = errors.New("client: no read quorum available")
	// ErrWriteUnavailable means no physical level could be fully prepared,
	// so no write quorum could be assembled.
	ErrWriteUnavailable = errors.New("client: no write quorum available")
	// ErrNotFound means the read quorum was assembled but no replica has
	// ever stored the key.
	ErrNotFound = errors.New("client: key not found")
	// ErrInDoubt means a write was committed at the protocol level but not
	// every quorum member acknowledged the commit before the deadline.
	ErrInDoubt = errors.New("client: write outcome in doubt")
	// ErrCatchingUp means the contacted replica is recovering and refused a
	// read/version probe: the site is alive (it answered immediately) but
	// not yet safe to read from. The engine treats it like a failed probe
	// for quorum assembly but does not score it as slow or dead.
	ErrCatchingUp = errors.New("client: replica catching up")
	// ErrClosed means the client has been closed.
	ErrClosed = errors.New("client: closed")
	// ErrOverloaded means a replica's admission gate answered with a typed
	// load-shed reply instead of serving: the site is alive but refusing
	// work right now. The engine skips to a sibling site without burning a
	// timeout; when every candidate refuses, the unavailability error wraps
	// this, so errors.Is(err, ErrOverloaded) identifies overload as the
	// cause. Shed replies carry a retry-after hint that floors the client's
	// backoff before the next level attempt.
	ErrOverloaded = rpc.ErrOverloaded
)

// Metrics counts the client's operations and replica contacts. Contacts are
// request messages sent to replicas, the unit in which the paper measures
// communication cost, booked on the operation that sent them: a write's
// version discovery is a write contact. A transaction counts as a write.
type Metrics struct {
	Reads         uint64
	ReadFailures  uint64
	Writes        uint64
	WriteFailures uint64
	ReadContacts  uint64
	WriteContacts uint64
	// ReadRefetches counts reads whose every reply was older than the floor
	// sent (see floorTable) and which were read again without one.
	ReadRefetches uint64
}

// Option configures a Client.
type Option interface {
	apply(*Client)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) { c.timeout = time.Duration(o) }

// WithTimeout sets the per-request reply deadline used as the failure
// detector (default 250ms).
func WithTimeout(d time.Duration) Option { return timeoutOption(d) }

type seedOption int64

func (o seedOption) apply(c *Client) {
	c.seed = int64(o)
	c.rng = rand.New(rand.NewSource(int64(o)))
}

// WithSeed fixes the client's quorum-selection randomness (and, derived
// from it, the retry-backoff jitter).
func WithSeed(seed int64) Option { return seedOption(seed) }

type hedgeDelayOption time.Duration

func (o hedgeDelayOption) apply(c *Client) { c.hedgeDelay = time.Duration(o) }

// WithHedgeDelay sets how long a level probe may be outstanding before a
// hedged backup probe is launched to the level's next candidate site
// (default: one eighth of the client timeout). The effective per-level
// delay is floored at twice the level's best learned round-trip, so hedges
// target stragglers rather than uniformly slow levels.
func WithHedgeDelay(d time.Duration) Option { return hedgeDelayOption(d) }

type hedgingOption bool

func (o hedgingOption) apply(c *Client) { c.hedging = bool(o) }

// WithHedging enables or disables hedged backup probes (default enabled).
// Disabled, reads fall back within a level only after the full client
// timeout — the protocol's plain sequential strategy.
func WithHedging(enabled bool) Option { return hedgingOption(enabled) }

// retryBase is the base delay of the jittered exponential backoff applied
// before a level-fallback attempt.
const retryBase = 2 * time.Millisecond

type observerOption struct{ o *obs.Observer }

func (o observerOption) apply(c *Client) { c.obs = o.o }

// WithObserver attaches an observability hook: operation latency
// histograms, outcome and fallback counters on the observer's registry,
// and one structured OpTrace per operation in its trace recorder. A nil
// observer (the default) leaves the hot paths uninstrumented.
func WithObserver(o *obs.Observer) Option { return observerOption{o: o} }

// opKind is what an operation is: its trace name, its duration and outcome
// series, and which half of Metrics it books on (a transaction books as a
// write).
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opTxn
	opKinds
)

var opNames = [opKinds]string{opRead: "read", opWrite: "write", opTxn: "txn"}

// boundOutcomes are the arbor_client_ops_total series bound up front, so
// /metrics lists them from the first scrape; a read's error and every txn
// outcome are bound on first use.
var boundOutcomes = [opKinds][]string{
	opRead:  {obs.OutcomeOK, obs.OutcomeNotFound, obs.OutcomeUnavailable},
	opWrite: {obs.OutcomeOK, obs.OutcomeInDoubt, obs.OutcomeUnavailable},
}

// instruments are the client's pre-resolved metric handles. Without a
// registry every handle is nil, and a nil handle no-ops.
type instruments struct {
	dur               [opKinds]*obs.Histogram
	ops               *obs.CounterVec          // labels: op, outcome
	outcomes          [opKinds][3]*obs.Counter // boundOutcomes' series, in its order
	siteFallbacks     *obs.Counter
	hedges, hedgeWins *obs.Counter
	readRefetches     *obs.Counter
	retryLevel        *obs.Counter

	// The contact series, fed by the engine and by one-way sends.
	callDur                           *obs.Histogram
	calls, timeouts, sends, overloads *obs.Counter
	deadlineSkips                     *obs.Counter
}

// newInstruments resolves the client metric families against reg.
func newInstruments(reg *obs.Registry) *instruments {
	dur := reg.HistogramVec("arbor_client_op_duration_seconds",
		"End-to-end client operation latency, including level fallbacks and retries.", "op")
	ops := reg.CounterVec("arbor_client_ops_total",
		"Client operations completed, by operation and outcome.", "op", "outcome")
	fallbacks := reg.CounterVec("arbor_client_fallbacks_total",
		"Quorum fallbacks taken: site = another replica of the same level after a failure (a fallback to another physical level is a level retry, arbor_client_retries_total).", "kind")
	hedgeEvents := reg.CounterVec("arbor_client_hedges_total",
		"Hedged backup probes: launched = a backup probe started because the primary was overdue, win = a level was satisfied by a hedge probe's response.", "event")
	refetches := reg.Counter("arbor_client_read_refetches_total",
		"Reads repeated without a floor because every level answered older than the floor sent: a floor-table entry shared by two keys, or a read older than one this client already returned.")
	retries := reg.CounterVec("arbor_client_retries_total",
		"Backed-off retry attempts, by kind: level = a next-level fallback after a failed quorum attempt.", "kind")
	// The contact series: one request message per call, fed by the engine
	// (assembly.advance and assembly.record) and by Client.send. They keep
	// the arbor_rpc_* names, help and place in /metrics they had when
	// rpc.Caller counted them.
	in := &instruments{
		ops:           ops,
		siteFallbacks: fallbacks.With("site"),
		hedges:        hedgeEvents.With("launched"),
		hedgeWins:     hedgeEvents.With("win"),
		readRefetches: refetches,
		retryLevel:    retries.With("level"),
		callDur: reg.Histogram("arbor_rpc_call_duration_seconds",
			"Round-trip latency of replica calls, including timed-out calls."),
		calls: reg.Counter("arbor_rpc_calls_total",
			"Replica calls issued (each is one request message awaiting a reply)."),
		timeouts: reg.Counter("arbor_rpc_timeouts_total",
			"Replica calls whose reply deadline expired (failure-detector hits)."),
		sends: reg.Counter("arbor_rpc_sends_total",
			"Fire-and-forget payloads sent without awaiting a reply: one-way aborts of a failed prepare."),
		overloads: reg.Counter("arbor_rpc_overloaded_total",
			"Calls answered by a replica's admission gate with a load-shed reply."),
		deadlineSkips: reg.Counter("arbor_rpc_deadline_skips_total",
			"Calls failed locally because the caller's deadline budget was already spent."),
	}
	for k := range in.dur {
		in.dur[k] = dur.With(opNames[k])
		for i, outcome := range boundOutcomes[k] {
			in.outcomes[k][i] = ops.With(opNames[k], outcome)
		}
	}
	return in
}

// outcome is the arbor_client_ops_total series of an operation's outcome.
func (in *instruments) outcome(k opKind, outcome string) *obs.Counter {
	for i, o := range boundOutcomes[k] {
		if o == outcome {
			return in.outcomes[k][i]
		}
	}
	return in.ops.With(opNames[k], outcome)
}

// Client is a protocol client bound to one endpoint. It is safe for
// concurrent use.
type Client struct {
	id     int
	caller *rpc.Caller
	levels atomic.Pointer[levelTable] // the current protocol, see SetProtocol

	timeout    time.Duration
	hedging    bool
	hedgeDelay time.Duration
	seed       int64

	// book is the per-site record behind every ordering decision.
	book   *siteBook
	floors floorTable // the per-key floor a read sends along

	// instr and traces are the optional observer's two halves: handles
	// that no-op and a nil recorder when no observer is attached.
	obs    *obs.Observer
	instr  *instruments
	traces *obs.TraceRecorder

	// rng drives quorum selection; backoffRng drives retry jitter. They are
	// separate streams (both derived from the client seed) so that a
	// data-dependent number of retries cannot shift the quorum-selection
	// sequence and break simulation determinism.
	rngMu      sync.Mutex
	rng        *rand.Rand
	backoffRng *rand.Rand

	txID atomic.Uint64

	metrics struct {
		reads, readFailures, writes, writeFailures, readContacts, writeContacts, readRefetches atomic.Uint64
	}
}

// New creates a client with the given ID (used as the site component of
// write timestamps) attached to the endpoint, and starts routing the
// replies that arrive on it. Call Close when done.
func New(id int, ep transport.Conn, proto *core.Protocol, opts ...Option) *Client {
	c := &Client{
		id:      id,
		timeout: 250 * time.Millisecond,
		hedging: true,
		seed:    int64(id),
		rng:     rand.New(rand.NewSource(int64(id))),
	}
	c.levels.Store(newLevelTable(proto))
	for _, opt := range opts {
		opt.apply(c)
	}
	if c.hedgeDelay <= 0 {
		c.hedgeDelay = c.timeout / 8
	}
	c.backoffRng = rand.New(rand.NewSource(c.seed ^ 0x9e3779b9))
	reg := c.obs.Reg()
	c.instr = newInstruments(reg)
	c.traces = c.obs.Rec()
	c.book = newSiteBook(c.hedgeDelay)
	c.caller = rpc.NewCaller(ep, c.timeout)
	return c
}

// ID returns the client's identifier.
func (c *Client) ID() int { return c.id }

// Protocol returns the protocol instance the client currently operates
// under. Each operation snapshots it once, so an operation never mixes
// quorums from two configurations.
func (c *Client) Protocol() *core.Protocol { return c.levels.Load().proto }

// SetProtocol switches the client to a new tree configuration. In-flight
// operations finish under the configuration they started with.
func (c *Client) SetProtocol(p *core.Protocol) { c.levels.Store(newLevelTable(p)) }

// Metrics returns a snapshot of the client's counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Reads:         c.metrics.reads.Load(),
		ReadFailures:  c.metrics.readFailures.Load(),
		Writes:        c.metrics.writes.Load(),
		WriteFailures: c.metrics.writeFailures.Load(),
		ReadContacts:  c.metrics.readContacts.Load(),
		WriteContacts: c.metrics.writeContacts.Load(),
		ReadRefetches: c.metrics.readRefetches.Load(),
	}
}

// Close stops reply routing. Outstanding calls fail with ErrClosed.
func (c *Client) Close() {
	c.caller.Close()
}

// opRun is one operation from begin to end: what its epilogue books.
type opRun struct {
	kind     opKind
	op       *obs.Op   // the trace, nil when none is recorded
	start    time.Time // zero when the client is not observed
	contacts int       // requests sent, every phase of the operation
}

// begin starts an operation: it opens its trace and, on an observed
// client, its clock.
func (c *Client) begin(kind opKind, key string) opRun {
	r := opRun{kind: kind, op: c.traces.Start(opNames[kind], key, c.id)}
	if c.obs != nil {
		r.start = time.Now()
	}
	return r
}

// end is every operation's one epilogue. It derives the outcome from err,
// books it and the operation's contacts on Metrics (a transaction as a
// write), counts it on the outcome series, times it, and seals the trace.
// A not-found read and an in-doubt write completed; anything else failed.
func (c *Client) end(r *opRun, err error) {
	outcome := obs.OutcomeError
	switch {
	case err == nil:
		outcome = obs.OutcomeOK
	case errors.Is(err, ErrNotFound):
		outcome = obs.OutcomeNotFound
	case errors.Is(err, ErrInDoubt):
		outcome = obs.OutcomeInDoubt
	case errors.Is(err, ErrTxnConflict):
		outcome = obs.OutcomeConflict
	case errors.Is(err, ErrReadUnavailable), errors.Is(err, ErrWriteUnavailable):
		outcome = obs.OutcomeUnavailable
	}
	m := &c.metrics
	done, failed, contacts := &m.writes, &m.writeFailures, &m.writeContacts
	if r.kind == opRead {
		done, failed, contacts = &m.reads, &m.readFailures, &m.readContacts
	}
	switch outcome {
	case obs.OutcomeOK, obs.OutcomeNotFound, obs.OutcomeInDoubt:
		done.Add(1)
	default:
		failed.Add(1)
	}
	contacts.Add(uint64(r.contacts))
	if !r.start.IsZero() {
		c.instr.dur[r.kind].Observe(time.Since(r.start))
	}
	c.instr.outcome(r.kind, outcome).Inc()
	r.op.Finish(outcome, err, r.contacts)
}

// backoff sleeps the attempt's share of a jittered exponential schedule —
// retryBase·2ᵃᵗᵗᵉᵐᵖᵗ, capped at 16×retryBase, jittered uniformly over
// [½d, 1½d) — honoring ctx. The jitter draws from a dedicated seeded RNG
// so simulated runs stay deterministic. It counts a level retry. floor (an
// overloaded replica's retry-after hint) raises the final sleep to at least
// that long: a site that said "come back in 10ms" must not be re-attacked
// in 2.
func (c *Client) backoff(ctx context.Context, attempt int, floor time.Duration) error {
	c.instr.retryLevel.Inc()
	d := retryBase
	const maxd = 16 * retryBase
	for i := 0; i < attempt && d < maxd; i++ {
		d *= 2
	}
	c.rngMu.Lock()
	j := d/2 + time.Duration(c.backoffRng.Int63n(int64(d)))
	c.rngMu.Unlock()
	if j < floor {
		j = floor
	}
	timer := time.NewTimer(j)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
