package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arbor/internal/replica"
)

// TestWriteDoesNotRetainCallerBuffer: on the in-memory transport a message
// is handed over by reference, so whatever slice a write sends is the slice
// every replica stores and every read returns. Writers here reuse one buffer
// and overwrite it the instant Write or Txn.Write returns; readers check
// every value's checksum. Had the client sent the caller's slice, a stored
// value would change under its readers: a checksum mismatch, and a data race
// under -race.
func TestWriteDoesNotRetainCallerBuffer(t *testing.T) {
	const (
		writers, readers = 3, 2 // the last writer goes through Txn
		keysPerWriter    = 4
		writesEach       = 1500
		readsEach        = 2750 // 3×1500 + 2×2750 = 10000 operations
		valueSize        = 256
	)
	h := newMemHarness(t, "1-3-5", WithTimeout(5*time.Second))
	ctx := context.Background()
	var mismatches, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, valueSize)
			for i := 0; i < writesEach; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%keysPerWriter)
				for j := 4; j < len(buf); j++ {
					buf[j] = byte(w) + byte(i) + byte(j)
				}
				binary.BigEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
				var err error
				if w == writers-1 {
					tx := h.cli.NewTxn()
					err = tx.Write(key, buf)
					clear(buf)
					if err == nil {
						err = tx.Commit(ctx)
					}
				} else {
					_, err = h.cli.Write(ctx, key, buf)
					clear(buf)
				}
				if err != nil {
					fail("writer %d, write %d of %s: %v", w, i, key, err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				key := fmt.Sprintf("w%d-%d", (i+r)%writers, (i/writers)%keysPerWriter)
				rd, err := h.cli.Read(ctx, key)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					fail("reader %d, read %d of %s: %v", r, i, key, err)
					continue
				}
				if len(rd.Value) != valueSize || binary.BigEndian.Uint32(rd.Value) != crc32.ChecksumIEEE(rd.Value[4:]) {
					mismatches.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d reads returned a value that failed its checksum", n)
	}
	if n := failures.Load(); n != 0 {
		t.Errorf("%d operations failed", n)
	}
}

// TestReadLeavesStoredValuesAlone: on the in-memory network a read's Value
// is the very slice a replica stores, so the client never writes into it.
// Level 0 holds an older value of the key and level 1 a newer one of the
// same length: the read returns the newer one, and the older slice, which
// an earlier read returned and level 0 still stores, keeps its bytes.
func TestReadLeavesStoredValuesAlone(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	for _, r := range h.replicas[:2] { // level 0: sites 1 and 2
		r.Store().Apply("k", []byte("old-1"), replica.Timestamp{Version: 1, Site: 9})
	}
	first, err := h.cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range h.replicas[2:] { // level 1: sites 3 to 5
		r.Store().Apply("k", []byte("new-2"), replica.Timestamp{Version: 2, Site: 9})
	}
	second, err := h.cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(second.Value) != "new-2" {
		t.Fatalf("read = %q, want the newer level's value", second.Value)
	}
	if string(first.Value) != "old-1" {
		t.Errorf("a later read rewrote the value an earlier one returned: %q", first.Value)
	}
	for i, r := range h.replicas[:2] {
		if v, _, _ := r.Store().Get("k"); string(v) != "old-1" {
			t.Errorf("site %d stores %q, want the value it was given", i+1, v)
		}
	}
}
