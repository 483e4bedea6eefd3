package replica

import (
	"errors"
	"fmt"
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
// write-ahead journal and survive further crashes). A crash aborts the pass
// and keeps nothing of it; the next recovery starts a fresh full pass, which
// is always correct.

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
	errSyncJournal  = errors.New("replica: sync pull not journaled")
)

// startSync launches an anti-entropy pass in the background unless one is
// already running. Completion promotes a catching-up replica to live; a
// live replica stays live throughout.
func (r *Replica) startSync(plan SyncPlan) {
	r.syncMu.Lock()
	if r.syncDone != nil {
		select {
		case <-r.syncDone:
			// previous syncer already exited; start a new one
		default:
			r.syncMu.Unlock()
			return
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.syncStop, r.syncDone = stop, done
	r.syncMu.Unlock()
	r.syncActive.Store(true)
	go r.runSync(plan, stop, done)
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

// runSync is the syncer goroutine: one full pass over every source level.
func (r *Replica) runSync(plan SyncPlan, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer r.syncActive.Store(false)
	cfg := plan.Config.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, peers := range plan.Peers {
		if err := r.syncLevel(peers, cfg, rng, stop); err != nil {
			return // aborted
		}
	}
	r.instr.syncCompletions.Inc()
	r.health.CompareAndSwap(int32(HealthCatchingUp), int32(HealthLive))
}

// syncLevel pulls digest pages from one source level until its digest is
// exhausted, backing off (jittered, doubling) whenever every candidate
// source fails in a round, or the journal fails to append a pulled write.
// A page retried after a failed append fetches the keys the replica holds
// at the source's timestamp too, and journals them again: the failed
// write is already in memory, where the digest alone would skip it.
func (r *Replica) syncLevel(peers []transport.Addr, cfg SyncConfig, rng *rand.Rand, stop <-chan struct{}) error {
	backoff := cfg.RetryBase
	cursor := ""
	again := false
	for {
		select {
		case <-stop:
			return errSyncAborted
		default:
		}
		next, done, err := r.syncPage(peers, cursor, cfg, again, stop)
		if errors.Is(err, errSyncAborted) {
			return err
		}
		if err != nil {
			again = again || errors.Is(err, errSyncJournal)
			r.instr.syncRetries.Inc()
			d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
			if !sleepInterruptible(d, stop) {
				return errSyncAborted
			}
			backoff = min(2*backoff, 16*cfg.RetryBase)
			continue
		}
		backoff, again = cfg.RetryBase, false
		if done {
			return nil
		}
		cursor = next
	}
}

// syncPage tries one digest+fetch round after cursor against each candidate
// source in turn, until one serves it or the journal fails (which another
// source cannot mend). It returns the cursor for the next page; done
// reports the level's digest is exhausted.
func (r *Replica) syncPage(peers []transport.Addr, cursor string, cfg SyncConfig, again bool, stop <-chan struct{}) (next string, done bool, err error) {
	err = errSyncTimeout // reported when peers is empty
	for _, peer := range peers {
		next, done, err = r.syncPageFrom(peer, cursor, cfg, again, stop)
		if err == nil || errors.Is(err, errSyncAborted) || errors.Is(err, errSyncJournal) {
			return next, done, err
		}
	}
	return cursor, false, err
}

// syncPageFrom pulls one page from a single source: digest the keys after
// cursor, fetch the ones whose source timestamp beats ours (with again,
// also those it equals), apply them. The fetch goes to the same peer that
// served the digest so the fetched timestamps can only be newer than the
// digested ones. A pulled write the journal fails to append ends the round.
func (r *Replica) syncPageFrom(peer transport.Addr, cursor string, cfg SyncConfig, again bool, stop <-chan struct{}) (string, bool, error) {
	resp, err := r.syncCall(peer, cfg.CallTimeout, stop, SyncDigestReq{StartAfter: cursor, Limit: cfg.BatchSize})
	if err != nil {
		return cursor, false, err
	}
	dig, ok := resp.(SyncDigestResp)
	if !ok {
		return cursor, false, errSyncBadReply
	}
	need := make([]string, 0, len(dig.Entries))
	for _, e := range dig.Entries {
		local, found := r.store.Version(e.Key)
		if !found || e.TS.After(local) || again && e.TS == local {
			need = append(need, e.Key)
		}
	}
	if len(need) > 0 {
		resp, err := r.syncCall(peer, cfg.CallTimeout, stop, SyncFetchReq{Keys: need})
		if err != nil {
			return cursor, false, err
		}
		fetch, ok := resp.(SyncFetchResp)
		if !ok {
			return cursor, false, errSyncBadReply
		}
		for _, it := range fetch.Items {
			if !it.Found {
				continue
			}
			applied, err := r.store.pull(it.Key, it.Value, it.TS)
			if err != nil {
				return cursor, false, fmt.Errorf("%w: %w", errSyncJournal, err)
			}
			if applied {
				r.instr.syncKeysPulled.Inc()
			}
		}
	}
	r.instr.syncBatches.Inc()
	if n := len(dig.Entries); n > 0 {
		cursor = dig.Entries[n-1].Key
	}
	return cursor, !dig.More, nil
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
