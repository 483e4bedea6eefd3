package replica

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Stats counts the operations a replica served; the cluster uses them to
// measure empirical per-replica load.
type Stats struct {
	// Reads counts all read requests served; ReadsTSOnly is the subset
	// answered without the value (wire.ReadReq.ValueOmitted).
	Reads       uint64
	ReadsTSOnly uint64
	// Versions counts all version requests served; VersionsForWrite is the
	// subset issued as the version-discovery step of writes, so
	// Versions-VersionsForWrite are the read-side version serves.
	Versions         uint64
	VersionsForWrite uint64
	Prepares         uint64
	Commits          uint64
	Aborts           uint64
	Pings            uint64
	// SyncServes counts anti-entropy digest and fetch pages served to
	// recovering peers; Refusals counts read/version probes turned away
	// while this replica was catching up.
	SyncServes uint64
	Refusals   uint64
	// Sheds counts gated requests the admission gate answered with a typed
	// overload reply instead of serving (refused: saturated or draining;
	// busy: over the in-flight limit).
	Sheds uint64
	// ReplyErrors counts replies whose Send failed (broken connection, closed endpoint).
	ReplyErrors uint64
	// JournalErrors counts writes the journal failed to append: applied in
	// memory and, for a commit, answered OK: false.
	JournalErrors uint64
	Messages      uint64
}

// Replica is one replica site. Create with New, start serving its endpoint
// with Start, and stop it with Stop. Requests are handled on the goroutine
// transport.Serve delivers them on: concurrently over TCP, one per connection.
type Replica struct {
	site int
	ep   transport.Conn

	store *Store // values and prepare locks, under one mutex

	health    atomic.Int32 // Health lifecycle state; zero value is HealthLive
	failpoint atomic.Int32 // armed FailPoint, see SetFailPoint

	// syncer state: the anti-entropy driver goroutine and its reply router.
	// syncMu guards the lifecycle fields; syncPending routes SyncDigestResp/
	// SyncFetchResp messages from deliver to in-flight sync calls.
	syncMu      sync.Mutex
	syncStop    chan struct{} // closes to abort the running syncer
	syncDone    chan struct{} // closes when the syncer goroutine exits; nil if none
	syncPending map[uint64]chan any
	syncReqID   atomic.Uint64

	syncActive atomic.Bool

	messages atomic.Uint64 // Stats.Messages; no registry series

	// Admission control: gate counts in-flight gated work; saturated and
	// draining force immediate sheds (deterministic fault / graceful
	// drain); slowBy injects extra service time into gated requests.
	gate        *gate
	maxInflight int
	saturated   atomic.Bool
	draining    atomic.Bool
	slowBy      atomic.Int64

	// instr holds every counter once (see instruments); shedBy are its
	// per-reason shed counters (refused | busy), each bound on its first
	// shed so a reason that never fired has no series.
	instr  instruments
	shedMu sync.Mutex
	shedBy map[string]*obs.Counter

	stopServe func() // detaches deliver from the endpoint; set by Start
}

// instruments are the replica's pre-resolved obs handles. Each counter is
// the only count of its fact: Stats and SyncProgress read it, and on an
// observed replica it is the registry's own series, so /metrics and Stats
// cannot disagree; an unobserved replica counts into private counters. The
// handles at the end record nothing Stats reports and are nil (no-ops)
// unless the replica is observed.
type instruments struct {
	site              string // the "site" label value
	serveRead         *obs.Counter
	serveReadTSOnly   *obs.Counter // reads answered without the value; serveRead counts the others
	serveVersionRead  *obs.Counter
	serveVersionWrite *obs.Counter
	servePrepare      *obs.Counter
	serveCommit       *obs.Counter
	serveAbort        *obs.Counter
	servePing         *obs.Counter
	serveSyncDigest   *obs.Counter
	serveSyncFetch    *obs.Counter
	catchupRefusals   *obs.Counter
	syncKeysPulled    *obs.Counter
	syncBatches       *obs.Counter
	syncRetries       *obs.Counter
	syncCompletions   *obs.Counter
	replyErrors       *obs.Counter
	sheds             *obs.CounterVec // reason-labelled; see Replica.shedBy
	lockRefusals      *obs.CounterVec // reason: locked | stale
}

// instrument binds the replica's and its store's instruments to reg's series
// or, with a nil reg, to private counters and nil handles. The calls' order
// is the order the families register in, and so the order /metrics lists.
func (r *Replica) instrument(reg *obs.Registry) {
	site := strconv.Itoa(r.site)
	// An unobserved replica's counters are one block of its own (sized to
	// the counters bound below): allocated one by one they would be packed
	// beside those of the replicas built before and after it, and replicas
	// serving on different cores would contend for the shared cache lines.
	var own [17]obs.Counter
	next := 0
	counterOf := func(v *obs.CounterVec, values ...string) *obs.Counter {
		if v == nil {
			next++
			return &own[next-1]
		}
		return v.With(values...)
	}
	bySite := func(name, help string) *obs.Counter {
		return counterOf(reg.CounterVec(name, help, "site"), site)
	}
	serves := reg.CounterVec("arbor_replica_serves_total",
		"Requests served by a replica, by site and message type.", "site", "type")
	r.instr = instruments{
		site:              site,
		serveRead:         counterOf(serves, site, "read"),
		serveReadTSOnly:   counterOf(serves, site, "read_ts_only"),
		serveVersionRead:  counterOf(serves, site, "version_read"),
		serveVersionWrite: counterOf(serves, site, "version_write"),
		servePrepare:      counterOf(serves, site, "prepare"),
		serveCommit:       counterOf(serves, site, "commit"),
		serveAbort:        counterOf(serves, site, "abort"),
		servePing:         counterOf(serves, site, "ping"),
		serveSyncDigest:   counterOf(serves, site, "sync_digest"),
		serveSyncFetch:    counterOf(serves, site, "sync_fetch"),
		catchupRefusals: bySite("arbor_replica_catchup_refusals_total",
			"Read/version probes refused while the replica was catching up, by site."),
		syncKeysPulled: bySite("arbor_replica_sync_keys_pulled_total",
			"Keys whose value the anti-entropy syncer pulled from a live peer, by site."),
		syncBatches: bySite("arbor_replica_sync_batches_total",
			"Digest pages the anti-entropy syncer processed, by site."),
		syncRetries: bySite("arbor_replica_sync_retries_total",
			"Anti-entropy rounds retried after every candidate source failed, by site."),
		syncCompletions: bySite("arbor_replica_sync_completions_total",
			"Anti-entropy passes completed (replica converged to its sources), by site."),
		lockRefusals: reg.CounterVec("arbor_replica_lock_refusals_total",
			"Prepare requests refused, by site and reason (locked = lock contention, stale = superseded timestamp).",
			"site", "reason"),
	}
	r.store.lockWait = reg.Histogram("arbor_replica_lock_wait_seconds",
		"Time prepare handlers spent acquiring the replica's lock-table mutex.")
	r.instr.sheds = reg.CounterVec("arbor_replica_sheds_total",
		"Gated requests answered with a typed overload reply, by site and reason (refused = saturated or draining, busy = over the in-flight limit).",
		"site", "reason")
	r.instr.replyErrors = bySite("arbor_replica_reply_errors_total",
		"Replies the transport refused to send (requester's connection broken or endpoint closed), by site.")
	r.store.journalErrors = bySite("arbor_replica_journal_errors_total",
		"Applied writes the write-ahead journal failed to append (kept in memory until the replica crashes, then lost), by site.")
}

// Option configures a Replica.
type Option interface {
	apply(*Replica)
}

type lockTTLOption time.Duration

func (o lockTTLOption) apply(r *Replica) { r.store.lockTTL = time.Duration(o) }

// WithLockTTL bounds how long a prepared-but-unresolved transaction may hold
// a key lock before other writers can steal it (protection against crashed
// coordinators). The default is 2 seconds.
func WithLockTTL(d time.Duration) Option { return lockTTLOption(d) }

type maxInflightOption int

func (o maxInflightOption) apply(r *Replica) { r.maxInflight = int(o) }

// WithMaxInflight bounds how many gated requests (reads, version probes,
// prepares) the replica serves concurrently; excess work is shed at once
// with a typed overload reply. n <= 0 keeps DefaultMaxInflight. Phase-two
// commits and aborts are never gated.
func WithMaxInflight(n int) Option { return maxInflightOption(n) }

type observerOption struct{ reg *obs.Registry }

func (o observerOption) apply(r *Replica) {
	if o.reg != nil {
		r.instrument(o.reg)
	}
}

// WithObserver instruments the replica against the registry (a nil registry
// leaves it uninstrumented).
func WithObserver(reg *obs.Registry) Option { return observerOption{reg: reg} }

// New creates a replica for the given site ID, attached to the endpoint.
// It journals to memory until Store().AttachJournal gives it a file.
func New(site int, ep transport.Conn, opts ...Option) *Replica {
	r := &Replica{
		site:   site,
		ep:     ep,
		store:  NewStore(),
		shedBy: make(map[string]*obs.Counter),
	}
	r.store.journal = &WAL{f: new(memFile)}
	r.instrument(nil)
	for _, opt := range opts {
		opt.apply(r)
	}
	r.gate = newGate(r.maxInflight)
	return r
}

// Site returns the replica's site ID.
func (r *Replica) Site() int { return r.site }

// Store exposes the replica's store (used by tests and by the cluster to
// inspect state).
func (r *Replica) Store() *Store { return r.store }

// Start begins serving the endpoint's messages.
func (r *Replica) Start() { r.stopServe = transport.Serve(r.ep, r.deliver) }

// Stop ends delivery and any running syncer: once it returns no handler is
// running — on a transport goroutine or a slowsite= timer — and none will
// start.
func (r *Replica) Stop() {
	r.abortSync()
	r.stopServe()
	r.gate.stop()
}

// FailPoint names a deterministic crash trigger: the replica fail-stops
// the moment the named request arrives, before processing it. Fault-window
// tests use it to place a crash exactly between a transaction's phases —
// e.g. FailOnCommit models a participant that voted yes in prepare and
// died before the commit reached its store.
type FailPoint int

// Fail points.
const (
	// FailNone disables the trigger.
	FailNone FailPoint = iota
	// FailOnPrepare crashes on the next PrepareReq (before voting).
	FailOnPrepare
	// FailOnCommit crashes on the next CommitReq (after voting yes in
	// prepare, before the write reaches stable storage).
	FailOnCommit
)

// SetFailPoint arms (or, with FailNone, disarms) the crash trigger. The
// trigger fires once: the replica crashes and the fail point resets.
func (r *Replica) SetFailPoint(fp FailPoint) {
	r.failpoint.Store(int32(fp))
}

// shouldFail reports whether the armed fail point matches the message, and
// disarms it — by compare-and-swap, as deliveries race: of the matching
// messages in flight exactly one is told to fail.
func (r *Replica) shouldFail(tag wire.Tag) bool {
	fp := FailPoint(r.failpoint.Load())
	if fp == FailNone {
		return false
	}
	hit := tag == wire.TagPrepareReq && fp == FailOnPrepare || tag == wire.TagCommitReq && fp == FailOnCommit
	return hit && r.failpoint.CompareAndSwap(int32(fp), int32(FailNone))
}

// Crash makes the replica fail-stop: it ignores every message and loses
// everything but its journal — the store's contents, the prepare locks and
// any catch-up in progress. Recover is the one way back.
func (r *Replica) Crash() {
	r.health.Store(int32(HealthDown))
	r.abortSync()
	r.store.reset()
}

// Recover brings a replica back. One that is down has its overload faults
// and drain cleared and its store rebuilt from the journal, and rejoins
// catching up: it serves two-phase commit at once but refuses reads until a
// catch-up pass over plan has pulled every version it missed. With an
// empty plan (a single-level tree: no write can have committed without
// this site) it rejoins live. On a replica that is up, Recover starts a
// catch-up pass in place, and the replica stays as it is meanwhile.
func (r *Replica) Recover(plan SyncPlan) {
	if r.Health() != HealthDown {
		r.startSync(plan)
		return
	}
	r.clearOverload()
	// A journal that cannot be read back leaves the store to the catch-up.
	_ = r.store.reload()
	if len(plan.Peers) == 0 {
		r.health.Store(int32(HealthLive))
		return
	}
	r.health.Store(int32(HealthCatchingUp))
	r.startSync(plan)
}

// clearOverload resets the overload faults and drain state, so a recovered
// replica admits work again.
func (r *Replica) clearOverload() {
	r.saturated.Store(false)
	r.draining.Store(false)
	r.slowBy.Store(0)
}

// Crashed reports whether the replica is currently down.
func (r *Replica) Crashed() bool { return r.Health() == HealthDown }

// Stats returns a snapshot of the replica's served-operation counters.
func (r *Replica) Stats() Stats {
	in := &r.instr
	versionsForWrite, readsTSOnly := in.serveVersionWrite.Value(), in.serveReadTSOnly.Value()
	st := Stats{
		Reads:            in.serveRead.Value() + readsTSOnly,
		ReadsTSOnly:      readsTSOnly,
		Versions:         in.serveVersionRead.Value() + versionsForWrite,
		VersionsForWrite: versionsForWrite,
		Prepares:         in.servePrepare.Value(),
		Commits:          in.serveCommit.Value(),
		Aborts:           in.serveAbort.Value(),
		Pings:            in.servePing.Value(),
		SyncServes:       in.serveSyncDigest.Value() + in.serveSyncFetch.Value(),
		Refusals:         in.catchupRefusals.Value(),
		ReplyErrors:      in.replyErrors.Value(),
		JournalErrors:    r.store.journalErrors.Value(),
		Messages:         r.messages.Load(),
	}
	r.shedMu.Lock()
	for _, shed := range r.shedBy {
		st.Sheds += shed.Value()
	}
	r.shedMu.Unlock()
	return st
}

// deliver takes one message from the transport (a transport.Handler: m is
// valid only for the call, and so are its keys when m.Borrowed(); the store
// clones the one it keeps). Over TCP it runs on the arriving connection's
// read loop, so deliveries are concurrent and nothing below may block on
// anything but its own reply Send, a mutex or the journal: waiting for
// another message would stall the connection that carries it.
func (r *Replica) deliver(from transport.Addr, m *wire.Msg) {
	if r.Health() == HealthDown {
		return // fail-stop: no replies while down
	}
	if r.shouldFail(m.Tag) {
		r.Crash() // fail point: die before processing the request
		return
	}
	r.messages.Add(1)
	r.handle(from, m)
}

// handle dispatches one request and sends the reply. Replies are sent
// best-effort; a send failure means the requester vanished. Reads, version
// probes and prepares pass through the admission gate (gated), which serves
// them right here or sheds them at once. Phase-two commits and aborts, pings
// and sync traffic are never gated and never shed. A commit is answered OK
// only once its write is in the journal (or there is none).
func (r *Replica) handle(from transport.Addr, m *wire.Msg) {
	switch m.Tag {
	case wire.TagReadReq:
		req := &m.ReadReq
		if r.Health() == HealthCatchingUp {
			r.refuse(from, ReadResp{ReqID: req.ReqID, Key: req.Key, Refused: true})
			return
		}
		r.gated(from, m, req.ReqID, r.gate.readLimit)
	case wire.TagVersionReq:
		req := &m.VersionReq
		if r.Health() == HealthCatchingUp {
			r.refuse(from, VersionResp{ReqID: req.ReqID, Key: req.Key, Refused: true})
			return
		}
		r.gated(from, m, req.ReqID, r.gate.readLimit)
	case wire.TagPrepareReq:
		r.gated(from, m, m.PrepareReq.ReqID, r.gate.limit)
	case wire.TagCommitReq:
		req := &m.CommitReq
		r.instr.serveCommit.Inc()
		err := r.store.commit(req, m.Borrowed())
		r.reply(from, CommitResp{ReqID: req.ReqID, TxID: req.TxID, OK: err == nil})
	case wire.TagAbortReq:
		req := &m.AbortReq
		r.instr.serveAbort.Inc()
		r.store.abort(req) // one-way: no client waits for an answer
	case wire.TagPingReq:
		r.instr.servePing.Inc()
		r.reply(from, PingResp{ReqID: m.PingReq.ReqID, Site: r.site})
	case wire.TagSyncDigestReq:
		req := &m.SyncDigestReq
		r.instr.serveSyncDigest.Inc()
		entries, more := r.store.DigestPage(req.StartAfter, req.Limit)
		r.reply(from, SyncDigestResp{ReqID: req.ReqID, Entries: entries, More: more})
	case wire.TagSyncFetchReq:
		req := &m.SyncFetchReq
		r.instr.serveSyncFetch.Inc()
		items := make([]SyncItem, 0, len(req.Keys))
		for _, key := range req.Keys {
			value, ts, found := r.store.Get(key)
			items = append(items, SyncItem{Key: key, Value: value, TS: ts, Found: found})
		}
		r.reply(from, SyncFetchResp{ReqID: req.ReqID, Items: items})
	case wire.TagSyncDigestResp: // boxed: the syncer keeps it past the call
		r.deliverSyncReply(m.SyncDigestResp.ReqID, m.SyncDigestResp)
	case wire.TagSyncFetchResp:
		r.deliverSyncReply(m.SyncFetchResp.ReqID, m.SyncFetchResp)
	}
}

// serveGated answers an admitted read, version probe or prepare. A read
// whose floor is newer than what is stored gets Found and TS alone; the
// store decides prepares one at a time, under its mutex.
func (r *Replica) serveGated(from transport.Addr, m *wire.Msg) {
	switch m.Tag {
	case wire.TagReadReq:
		req := &m.ReadReq
		value, ts, found := r.store.Get(req.Key)
		if found && req.ValueOmitted(ts) {
			value = nil
			r.instr.serveReadTSOnly.Inc()
		} else {
			r.instr.serveRead.Inc()
		}
		r.reply(from, ReadResp{ReqID: req.ReqID, Key: req.Key, Value: value, TS: ts, Found: found})
	case wire.TagVersionReq:
		req := &m.VersionReq
		if req.ForWrite {
			r.instr.serveVersionWrite.Inc()
		} else {
			r.instr.serveVersionRead.Inc()
		}
		ts, found := r.store.Version(req.Key)
		r.reply(from, VersionResp{ReqID: req.ReqID, Key: req.Key, TS: ts, Found: found})
	case wire.TagPrepareReq:
		req := &m.PrepareReq
		r.instr.servePrepare.Inc()
		ok, reason := r.store.prepare(req, m.Borrowed(), time.Now())
		if !ok {
			r.instr.lockRefusals.With(r.instr.site, reason).Inc()
		}
		r.reply(from, PrepareResp{ReqID: req.ReqID, TxID: req.TxID, OK: ok, Reason: reason})
	}
}

// refuse turns a probe away while catching up: a fast negative reply beats
// silence, which would cost the client a full timeout.
func (r *Replica) refuse(to transport.Addr, payload any) {
	r.instr.catchupRefusals.Inc()
	r.reply(to, payload)
}

// reply sends best-effort: the requester's timeout covers a lost reply, so a
// failed Send is counted and the handler (over TCP, a read loop) carries on.
func (r *Replica) reply(to transport.Addr, payload any) {
	if err := transport.Send(r.ep, to, payload, wire.Stamp{}); err != nil {
		r.instr.replyErrors.Inc()
	}
}
