package replica

import (
	"errors"
	"math/rand"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Anti-entropy catch-up. A replica that was down missed writes; under the
// paper's quorum shapes every one of those writes committed on ALL sites of
// some physical level that does not contain this replica (its own level
// could not assemble a write quorum while it was down). So pulling from one
// live site per OTHER physical level provably covers every missed write,
// and any single member of a level is as good a source as any other.
//
// The syncer pages through each source's key/timestamp digest in key order,
// fetches exactly the keys whose source timestamp beats the local one, and
// applies them through the normal store path (so pulled values hit the
// write-ahead journal and survive further crashes). Per-level cursors are
// kept across crashes: a replica that dies mid-catch-up resumes where it
// stopped, finishes the interrupted pass, and then runs one fresh full pass
// — keys already paged past may have taken newer writes during the second
// outage, so cursor-resume alone would not converge.

// SyncConfig bounds one anti-entropy catch-up.
type SyncConfig struct {
	// BatchSize caps keys per digest page and per fetch (default 64).
	BatchSize int
	// CallTimeout is the per-RPC reply deadline (default 250ms).
	CallTimeout time.Duration
	// RetryBase is the backoff after a round in which every candidate
	// source failed (default CallTimeout); it doubles per barren round,
	// jittered, up to 16×RetryBase.
	RetryBase time.Duration
	// Seed drives the backoff jitter.
	Seed int64
}

func (c SyncConfig) withDefaults() SyncConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 250 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = c.CallTimeout
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SyncPlan tells a recovering replica where to pull state from: for each
// physical level other than its own, that level's sites in preference
// order. The cluster layer builds plans from the live protocol tree.
type SyncPlan struct {
	Peers  [][]transport.Addr
	Config SyncConfig
}

// SyncProgress is a snapshot of the syncer's counters.
type SyncProgress struct {
	Health      Health
	Active      bool
	KeysPulled  uint64
	Batches     uint64
	Retries     uint64
	Completions uint64
}

var (
	errSyncAborted  = errors.New("replica: sync aborted")
	errSyncTimeout  = errors.New("replica: sync call timed out")
	errSyncBadReply = errors.New("replica: unexpected sync reply type")
)

// RecoverCatchingUp brings a crashed replica back through the anti-entropy
// path: it enters the catching-up state — serving 2PC participation but
// refusing read/version probes — and promotes itself to live only once a
// full catch-up pass converges. With an empty plan (single-level tree:
// there is nowhere state could have gone without this site) it degenerates
// to instant Recover. On an already-live replica it starts a background
// reconciliation pass without leaving the live state.
func (r *Replica) RecoverCatchingUp(plan SyncPlan) {
	if len(plan.Peers) == 0 {
		r.Recover()
		return
	}
	r.clearOverload()
	r.health.CompareAndSwap(int32(HealthDown), int32(HealthCatchingUp))
	r.StartSync(plan)
}

// StartSync launches an anti-entropy pass in the background; it reports
// false if one is already running. Completion promotes a catching-up
// replica to live; a live replica stays live throughout.
func (r *Replica) StartSync(plan SyncPlan) bool {
	r.syncMu.Lock()
	if r.syncDone != nil {
		select {
		case <-r.syncDone:
			// previous syncer already exited; start a new one
		default:
			r.syncMu.Unlock()
			return false
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.syncStop, r.syncDone = stop, done
	r.syncMu.Unlock()
	r.syncActive.Store(true)
	go r.runSync(plan, stop, done)
	return true
}

// SyncProgress returns the syncer's lifecycle state and counters.
func (r *Replica) SyncProgress() SyncProgress {
	return SyncProgress{
		Health:      r.Health(),
		Active:      r.syncActive.Load(),
		KeysPulled:  r.instr.syncKeysPulled.Value(),
		Batches:     r.instr.syncBatches.Value(),
		Retries:     r.instr.syncRetries.Value(),
		Completions: r.instr.syncCompletions.Value(),
	}
}

// abortSync stops a running syncer (if any) and waits for it to exit.
// Cursors are left in place so the next recovery resumes.
func (r *Replica) abortSync() {
	r.syncMu.Lock()
	stop, done := r.syncStop, r.syncDone
	r.syncStop, r.syncDone = nil, nil
	r.syncMu.Unlock()
	if stop != nil {
		select {
		case <-stop:
		default:
			close(stop)
		}
	}
	if done != nil {
		<-done
	}
}

// runSync is the syncer goroutine: one (possibly resumed) pass over every
// source level, plus a fresh full pass if the first was a resume.
func (r *Replica) runSync(plan SyncPlan, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer r.syncActive.Store(false)
	cfg := plan.Config.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	passes := 1
	if r.hasCursors() {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		if p > 0 {
			r.resetCursors()
		}
		for li, peers := range plan.Peers {
			if err := r.syncLevel(li, peers, cfg, rng, stop); err != nil {
				return // aborted; cursors persist for the next resume
			}
		}
	}
	r.resetCursors()
	r.instr.syncCompletions.Inc()
	r.health.CompareAndSwap(int32(HealthCatchingUp), int32(HealthLive))
}

// syncLevel pulls digest pages from one source level until its digest is
// exhausted, backing off (jittered, doubling) whenever every candidate
// source fails in a round.
func (r *Replica) syncLevel(li int, peers []transport.Addr, cfg SyncConfig, rng *rand.Rand, stop <-chan struct{}) error {
	backoff := cfg.RetryBase
	for {
		select {
		case <-stop:
			return errSyncAborted
		default:
		}
		done, err := r.syncPage(li, peers, cfg, stop)
		if errors.Is(err, errSyncAborted) {
			return err
		}
		if err != nil {
			r.instr.syncRetries.Inc()
			d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
			if !sleepInterruptible(d, stop) {
				return errSyncAborted
			}
			backoff = min(2*backoff, 16*cfg.RetryBase)
			continue
		}
		backoff = cfg.RetryBase
		if done {
			r.clearCursor(li)
			return nil
		}
	}
}

// syncPage tries one digest+fetch round at the level's cursor against each
// candidate source in turn; done reports the level's digest is exhausted.
func (r *Replica) syncPage(li int, peers []transport.Addr, cfg SyncConfig, stop <-chan struct{}) (done bool, err error) {
	cursor := r.cursor(li)
	err = errSyncTimeout // reported when peers is empty
	for _, peer := range peers {
		var pageDone bool
		pageDone, err = r.syncPageFrom(li, peer, cursor, cfg, stop)
		if err == nil || errors.Is(err, errSyncAborted) {
			return pageDone, err
		}
	}
	return false, err
}

// syncPageFrom pulls one page from a single source: digest the keys after
// cursor, fetch the ones whose source timestamp beats ours, apply them.
// The fetch goes to the same peer that served the digest so the fetched
// timestamps can only be newer than the digested ones.
func (r *Replica) syncPageFrom(li int, peer transport.Addr, cursor string, cfg SyncConfig, stop <-chan struct{}) (bool, error) {
	resp, err := r.syncCall(peer, cfg.CallTimeout, stop, SyncDigestReq{StartAfter: cursor, Limit: cfg.BatchSize})
	if err != nil {
		return false, err
	}
	dig, ok := resp.(SyncDigestResp)
	if !ok {
		return false, errSyncBadReply
	}
	need := make([]string, 0, len(dig.Entries))
	for _, e := range dig.Entries {
		local, found := r.store.Version(e.Key)
		if !found || e.TS.After(local) {
			need = append(need, e.Key)
		}
	}
	if len(need) > 0 {
		resp, err := r.syncCall(peer, cfg.CallTimeout, stop, SyncFetchReq{Keys: need})
		if err != nil {
			return false, err
		}
		fetch, ok := resp.(SyncFetchResp)
		if !ok {
			return false, errSyncBadReply
		}
		for _, it := range fetch.Items {
			if !it.Found {
				continue
			}
			if r.store.Apply(it.Key, it.Value, it.TS) {
				r.instr.syncKeysPulled.Inc()
			}
		}
	}
	r.instr.syncBatches.Inc()
	if n := len(dig.Entries); n > 0 {
		r.setCursor(li, dig.Entries[n-1].Key)
	}
	r.notifySyncHook(li)
	return !dig.More, nil
}

// syncCall sends one sync request, stamped with a fresh ReqID, and waits for
// deliver to route the matching reply back (the syncer shares the replica's
// endpoint, so replies arrive as ordinary inbound messages keyed by ReqID).
func (r *Replica) syncCall(to transport.Addr, timeout time.Duration, stop <-chan struct{}, req wire.Request) (any, error) {
	id := r.syncReqID.Add(1)
	ch := make(chan any, 1)
	r.syncMu.Lock()
	if r.syncPending == nil {
		r.syncPending = make(map[uint64]chan any)
	}
	r.syncPending[id] = ch
	r.syncMu.Unlock()
	defer func() {
		r.syncMu.Lock()
		delete(r.syncPending, id)
		r.syncMu.Unlock()
	}()
	if err := transport.Send(r.ep, to, req, wire.Stamp{ReqID: id}); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-timer.C:
		return nil, errSyncTimeout
	case <-stop:
		return nil, errSyncAborted
	}
}

// deliverSyncReply routes a sync response to the in-flight call that issued
// it, without blocking the delivering goroutine.
func (r *Replica) deliverSyncReply(reqID uint64, payload any) {
	r.syncMu.Lock()
	ch := r.syncPending[reqID]
	r.syncMu.Unlock()
	if ch != nil {
		select {
		case ch <- payload:
		default:
		}
	}
}

func (r *Replica) cursor(li int) string {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return r.syncCursors[li]
}

func (r *Replica) setCursor(li int, key string) {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	if r.syncCursors == nil {
		r.syncCursors = make(map[int]string)
	}
	r.syncCursors[li] = key
}

func (r *Replica) clearCursor(li int) {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	delete(r.syncCursors, li)
}

func (r *Replica) hasCursors() bool {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return len(r.syncCursors) > 0
}

func (r *Replica) resetCursors() {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	r.syncCursors = nil
}

// setSyncHook installs a test-only callback invoked after every applied
// page with the level index and its new cursor.
func (r *Replica) setSyncHook(fn func(level int, cursor string)) {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	r.syncHook = fn
}

func (r *Replica) notifySyncHook(li int) {
	r.syncMu.Lock()
	fn, cur := r.syncHook, r.syncCursors[li]
	r.syncMu.Unlock()
	if fn != nil {
		fn(li, cur)
	}
}

// sleepInterruptible waits d unless stop closes first; it reports whether
// the full wait elapsed.
func sleepInterruptible(d time.Duration, stop <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}
