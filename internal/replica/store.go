package replica

import (
	"sort"
	"sync"
	"time"

	"arbor/internal/obs"
	"arbor/internal/wire"
)

// entry is one stored version of a key.
type entry struct {
	value []byte
	ts    Timestamp
}

// Store is the replica's volatile state: a timestamped key-value map, lost
// by a crash and rebuilt from the journal (the replica's stable storage) on
// recovery. Writes only apply if their timestamp is newer than the stored
// one, making commit application idempotent and reordering-safe. A stored value is
// immutable: Apply keeps the slice it is given and Get hands that slice out,
// so neither caller may write to it; a newer Apply replaces the slice.
//
// Under the same mutex the store holds the volatile prepare locks of
// in-flight transactions, so the participant's two-phase-commit rule is
// decided in one place: see prepare, commit and abort.
type Store struct {
	mu      sync.Mutex
	data    map[string]entry
	locks   map[string]lockState
	lockTTL time.Duration // see WithLockTTL
	journal *WAL
	// lost is set by reset (a crash) and cleared once a replay has rebuilt
	// the store: meanwhile the store is not its journal's image, and
	// Compact leaves the journal alone.
	lost bool
	// journalErrors counts failed journal appends and lockWait (nil: off)
	// times the mutex in prepare; a replica rebinds both to its observer.
	journalErrors *obs.Counter
	lockWait      *obs.Histogram
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]entry), locks: make(map[string]lockState),
		lockTTL: 2 * time.Second, journalErrors: new(obs.Counter)}
}

// lockState is a transaction's prepare lock on one key. key is the string
// the lock is filed under, which the store owns: commit installs the write
// under it, so a borrowed key is cloned once per write, by prepare.
type lockState struct {
	key     string
	txID    uint64
	expires time.Time
}

// own returns key as one the store may keep, cloned if it is a borrowed view
// of a frame (wire.Msg.Borrowed). Every map write keeps its key, updates too.
func own(key string, borrowed bool) string {
	if borrowed {
		return wire.Clone(key)
	}
	return key
}

// Get returns the stored value (shared, read-only) and timestamp for key.
func (s *Store) Get(key string) (value []byte, ts Timestamp, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	return e.value, e.ts, ok
}

// Version returns only the stored timestamp for key.
func (s *Store) Version(key string) (ts Timestamp, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	return e.ts, ok
}

// Apply installs value under key if ts is newer than what is stored, and
// reports whether the write took effect; the store then owns value. An
// effective write is appended to the journal, and Apply returns the
// append's error (counted too). A failed append does not roll back the
// in-memory apply, so the write is lost by the next crash unless it is
// applied again.
// The append runs after the store lock is released, so journal order may
// differ from apply order; replay keeps the newest timestamp of a key, and
// so ends at the same state.
func (s *Store) Apply(key string, value []byte, ts Timestamp) (applied bool, err error) {
	s.mu.Lock()
	return s.install(key, value, ts, false)
}

// pull is Apply for a catch-up: it also journals a write whose timestamp is
// the one stored, as a retried page re-applies the writes a failed append
// left in memory only (see syncLevel).
func (s *Store) pull(key string, value []byte, ts Timestamp) (applied bool, err error) {
	s.mu.Lock()
	return s.install(key, value, ts, true)
}

// install is Apply past its Lock: entered with s.mu held, it stores the
// write if ts is newer, releases s.mu, and then journals an effective write
// — with again, also one whose ts is the one stored — and returns the
// append's error.
func (s *Store) install(key string, value []byte, ts Timestamp, again bool) (applied bool, err error) {
	e, ok := s.data[key]
	switch applied = !ok || ts.After(e.ts); {
	case applied:
		s.data[key] = entry{value: value, ts: ts}
	case !again || ts != e.ts:
		s.mu.Unlock()
		return false, nil
	}
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		if err = journal.Append(key, value, ts); err != nil {
			s.journalErrors.Inc()
		}
	}
	return applied, err
}

// prepare admits a transaction's phase one unless another holds a lock on
// the key live at now ("locked") or its timestamp does not supersede the
// stored one ("stale"), and then takes or renews its lock until now +
// lockTTL. The lock is filed under the key cloned if borrowed, before the
// mutex: an allocation inside it would hold up every handler of the store.
// The caller reads now before the mutex: lockWait starts there.
func (s *Store) prepare(req *PrepareReq, borrowed bool, now time.Time) (ok bool, reason string) {
	key := own(req.Key, borrowed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lockWait != nil {
		s.lockWait.Observe(time.Since(now))
	}
	if l, held := s.locks[key]; held && l.txID != req.TxID && now.Before(l.expires) {
		return false, "locked"
	}
	if e, found := s.data[key]; found && !req.TS.After(e.ts) {
		return false, "stale"
	}
	s.locks[key] = lockState{key: key, txID: req.TxID, expires: now.Add(s.lockTTL)}
	return true, ""
}

// commit releases the transaction's lock and installs its write in one
// critical section, under the key the lock was filed under, and returns the
// journal append's error. A commit with no visible lock (expired, or dropped
// by a crash) still applies, its key cloned if borrowed:
// the timestamp order keeps it idempotent. A re-sent commit whose timestamp
// is already stored is journaled again (replay is idempotent too), so its
// answer reflects its own append; one a newer write superseded appends
// nothing.
func (s *Store) commit(req *CommitReq, borrowed bool) error {
	s.mu.Lock()
	key, held := s.release(req.Key, req.TxID)
	if !held {
		key = own(req.Key, borrowed)
	}
	_, err := s.install(key, req.Value, req.TS, true)
	return err
}

// abort releases the transaction's lock if it still holds it.
func (s *Store) abort(req *AbortReq) {
	s.mu.Lock()
	s.release(req.Key, req.TxID)
	s.mu.Unlock()
}

// release drops txID's lock on key, if it holds it, and returns the key the
// lock was filed under; s.mu is held.
func (s *Store) release(key string, txID uint64) (filed string, held bool) {
	l, ok := s.locks[key]
	if held = ok && l.txID == txID; held {
		delete(s.locks, key)
	}
	return l.key, held
}

// reset discards the store's contents and every prepare lock: what a crash
// loses. The journal stays attached, and the store is lost until a replay
// rebuilds it.
func (s *Store) reset() {
	s.mu.Lock()
	clear(s.data)
	clear(s.locks)
	s.lost = true
	s.mu.Unlock()
}

// load installs a replayed record if it is newer than what is stored,
// without journaling it again.
func (s *Store) load(key string, value []byte, ts Timestamp) {
	s.mu.Lock()
	if e, ok := s.data[key]; !ok || ts.After(e.ts) {
		s.data[key] = entry{value: value, ts: ts}
	}
	s.mu.Unlock()
}

// reload rebuilds the store from its journal after a crash: reset, then
// replay. A replay that fails leaves the store lost.
func (s *Store) reload() error {
	s.reset()
	s.mu.Lock()
	journal := s.journal
	s.mu.Unlock()
	if journal == nil {
		return nil
	}
	if err := journal.replayInto(s); err != nil {
		return err
	}
	s.mu.Lock()
	s.lost = false
	s.mu.Unlock()
	return nil
}

// Compact rewrites the store's journal as one record per key (see
// WAL.compact). A store that a crash has reset and no replay has rebuilt
// yet is not its journal's image: its journal is left as it is.
func (s *Store) Compact() error {
	s.mu.Lock()
	journal := s.journal
	s.mu.Unlock()
	if journal == nil {
		return nil
	}
	return journal.compact(s)
}

// image returns the store's entries as journal records, or false while the
// store is lost. The values are shared, not copied: stored values are
// immutable.
func (s *Store) image() ([]wire.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lost {
		return nil, false
	}
	recs := make([]wire.Record, 0, len(s.data))
	for k, e := range s.data {
		recs = append(recs, wire.Record{Key: k, Value: e.value, TS: e.ts})
	}
	return recs, true
}

// locked reports whether any prepare lock is live at now.
func (s *Store) locked(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.locks {
		if now.Before(l.expires) {
			return true
		}
	}
	return false
}

// DigestPage returns up to limit key/timestamp pairs in ascending key
// order, starting strictly after the given key; more reports whether
// further keys remain. It is the server side of anti-entropy catch-up,
// which walks a source's keys one page at a time. The full key set is
// sorted per page — fine at the
// simulated scale; a production store would keep an ordered index.
func (s *Store) DigestPage(after string, limit int) (entries []DigestEntry, more bool) {
	if limit <= 0 {
		limit = 64
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		if k > after {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > limit {
		keys, more = keys[:limit], true
	}
	entries = make([]DigestEntry, len(keys))
	for i, k := range keys {
		entries[i] = DigestEntry{Key: k, TS: s.data[k].ts}
	}
	s.mu.Unlock()
	return entries, more
}
