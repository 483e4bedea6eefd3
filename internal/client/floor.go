package client

import (
	"sync"

	"arbor/internal/replica"
)

// floorTable remembers, per key, the newest timestamp this client has read
// or cleanly committed; a read sends it as its floor (DESIGN.md §4m). It is
// advice, never truth: 2-way set-associative on a 64-bit hash alone (96 KiB),
// so entries are shared and evicted, and readQuorum checks every winner.
type floorTable struct {
	mu   sync.Mutex
	sets [2048][2]floorEntry // way 0 is the one put last
}

type floorEntry struct {
	hash uint64
	ts   replica.Timestamp
}

// keyHash is 64-bit FNV-1a: unseeded, because the sim replays runs.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// get returns the floor recorded under h, zero when there is none.
func (t *floorTable) get(h uint64) replica.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.sets[h%uint64(len(t.sets))] {
		if e.hash == h {
			return e.ts
		}
	}
	return replica.Timestamp{}
}

// put raises the floor under h to ts, never lowers it, and makes its entry
// way 0; an h new to its set takes the place of the entry put longest ago.
func (t *floorTable) put(h uint64, ts replica.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := &t.sets[h%uint64(len(t.sets))]
	if set[0].hash != h {
		set[0], set[1] = set[1], set[0]
		if set[0].hash != h {
			set[0] = floorEntry{hash: h}
		}
	}
	if ts.After(set[0].ts) {
		set[0].ts = ts
	}
}
