package replica

import (
	"sort"
	"sync"

	"arbor/internal/obs"
)

// entry is one stored version of a key.
type entry struct {
	value []byte
	ts    Timestamp
}

// Store is the replica's stable storage: a timestamped key-value map.
// Writes only apply if their timestamp is newer than the stored one, making
// commit application idempotent and reordering-safe. A stored value is
// immutable: Apply keeps the slice it is given and Get hands that slice out,
// so neither caller may write to it; a newer Apply replaces the slice.
type Store struct {
	mu      sync.Mutex
	data    map[string]entry
	journal *WAL
	// journalErrors counts failed journal appends; a replica rebinds it to
	// its observer's series.
	journalErrors *obs.Counter
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]entry), journalErrors: new(obs.Counter)}
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

// Apply installs value under key if ts is newer than what is stored. It
// reports whether the write took effect; the store then owns value. When a
// journal is attached, effective writes are appended to it (best-effort: a
// journal failure is counted and does not roll back the in-memory apply).
// The append runs after the store lock is released, so journal order may
// differ from apply order; replay goes through Apply, where a record older
// than what is stored is a no-op, and so ends at the same state.
func (s *Store) Apply(key string, value []byte, ts Timestamp) bool {
	s.mu.Lock()
	if e, ok := s.data[key]; ok && !ts.After(e.ts) {
		s.mu.Unlock()
		return false
	}
	s.data[key] = entry{value: value, ts: ts}
	journal := s.journal
	s.mu.Unlock()
	if journal != nil && journal.Append(key, value, ts) != nil {
		s.journalErrors.Inc()
	}
	return true
}

// DigestPage returns up to limit key/timestamp pairs in ascending key
// order, starting strictly after the given key; more reports whether
// further keys remain. It is the server side of anti-entropy catch-up:
// stable pagination lets a recovering peer resume mid-digest after its own
// repeated crashes. The full key set is sorted per page — fine at the
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

// Len returns the number of keys stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Keys returns all stored keys (unordered).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	return out
}
