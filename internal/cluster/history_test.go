package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/history"
	"arbor/internal/tree"
)

// runHistoryWorkload drives concurrent clients and records every completed
// operation for the one-copy checker.
func runHistoryWorkload(t *testing.T, c *Cluster, clients, opsPerClient int, keys []string, chaos func(i int)) *history.Recorder {
	t.Helper()
	rec := history.NewRecorder()
	ctx := context.Background()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		cli := newClient(t, c)
		wg.Add(1)
		go func(ci int, cli *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci) + 100))
			for i := 0; i < opsPerClient; i++ {
				if chaos != nil {
					chaos(i)
				}
				key := keys[rng.Intn(len(keys))]
				start := time.Now()
				if rng.Intn(2) == 0 {
					rd, err := cli.Read(ctx, key)
					end := time.Now()
					if err != nil && !errors.Is(err, client.ErrNotFound) {
						continue // unavailable: no history obligation
					}
					rec.Record(history.Op{
						Kind: history.Read, Key: key, Value: string(rd.Value),
						TS: rd.TS, Found: rd.Found, Start: start, End: end, Client: ci,
					})
					continue
				}
				val := fmt.Sprintf("c%d-%d", ci, i)
				wr, err := cli.Write(ctx, key, []byte(val))
				end := time.Now()
				if err != nil && !errors.Is(err, client.ErrInDoubt) {
					continue
				}
				rec.Record(history.Op{
					Kind: history.Write, Key: key, Value: val,
					TS: wr.TS, Found: true, Start: start, End: end, Client: ci,
					InDoubt: err != nil,
				})
			}
		}(ci, cli)
	}
	wg.Wait()
	return rec
}

// TestConcurrentHistoryIsOneCopy checks the full stack's one-copy semantics
// under concurrent clients on a healthy cluster.
func TestConcurrentHistoryIsOneCopy(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{LockTTL: 150 * time.Millisecond})
	keys := []string{"a", "b", "c"}
	rec := runHistoryWorkload(t, c, 4, 40, keys, nil)
	if rec.Len() == 0 {
		t.Fatal("no operations recorded")
	}
	for _, v := range history.Check(rec.Ops()) {
		t.Error(v)
	}
}

// TestConcurrentHistoryUnderCrashes injects crash/recover chaos and checks
// that every operation that did complete still respects one-copy semantics.
func TestConcurrentHistoryUnderCrashes(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{LockTTL: 150 * time.Millisecond})
	keys := []string{"a", "b"}

	var chaosMu sync.Mutex
	chaosRng := rand.New(rand.NewSource(9))
	chaos := func(i int) {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		// Occasionally crash one replica per level member set, keeping
		// read quorums available (never crash a whole level).
		if chaosRng.Intn(10) == 0 {
			c.RecoverAll()
			// Sites 1-3 form level 0, sites 4-8 level 1 in the 1-3-5 tree;
			// crashing a single site keeps both levels readable.
			_ = c.Crash(tree.SiteID(1 + chaosRng.Intn(8)))
		}
	}
	rec := runHistoryWorkload(t, c, 3, 30, keys, chaos)
	c.RecoverAll()
	if rec.Len() == 0 {
		t.Fatal("no operations recorded")
	}
	for _, v := range history.Check(rec.Ops()) {
		t.Error(v)
	}
}
