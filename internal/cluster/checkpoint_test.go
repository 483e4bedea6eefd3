package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/tree"
	"arbor/internal/wire"
)

// journalRecords counts the whole records in a site's journal under dir.
func journalRecords(t *testing.T, dir string, site tree.SiteID) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("site-%d.wal", site)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for len(data) >= 4 {
		size := int(binary.BigEndian.Uint32(data))
		if len(data) < 4+size {
			break
		}
		if _, err := wire.DecodeRecord(data[4 : 4+size]); err != nil {
			t.Fatalf("site %d: record %d: %v", site, n, err)
		}
		data = data[4+size:]
		n++
	}
	return n
}

// TestCheckpointRestoreRoundTrip: a checkpoint compacts every journal to at
// most one record per key, and a cluster restarted on the compacted
// journals serves every write and goes on from its versions.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const keys, rounds = 5, 4

	c1 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
	cli1 := newClient(t, c1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			if _, err := cli1.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(t, c1, "checkpoint")
	total := 0
	for _, site := range c1.Tree().Sites() {
		n := journalRecords(t, dir, site)
		held, _ := c1.Replica(site).Store().DigestPage("", keys+1)
		if n != len(held) || n > keys {
			t.Errorf("site %d: %d records after checkpoint, holding %d keys", site, n, len(held))
		}
		total += n
	}
	if total < keys {
		t.Errorf("%d records in all journals, fewer than the %d keys written", total, keys)
	}
	c1.Close()

	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(tr, Config{Seed: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cli2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		rd, err := cli2.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after restart: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", rounds-1); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}
	wr, err := cli2.Write(ctx, "k0", []byte("newer"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.TS.Version <= rounds {
		t.Errorf("post-restart version %d should continue past the checkpointed %d", wr.TS.Version, rounds)
	}
}

// TestApplyEventCheckpoint: the checkpoint verb parses, renders back, and
// applied after a crash in the same event compacts every journal but the
// crashed site's.
func TestApplyEventCheckpoint(t *testing.T) {
	const in = "10ms:crash=1+checkpoint;20ms:recover=1+checkpoint"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.String(); got != in {
		t.Fatalf("Schedule.String() = %q, want %q", got, in)
	}
	if !sched[0].Checkpoint || !sched[1].Checkpoint {
		t.Fatalf("checkpoint not parsed: %+v", sched)
	}

	dir := t.TempDir()
	c := newConfiguredCluster(t, "1-2-2", Config{WALDir: dir})
	cli := newClient(t, c)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := cli.Write(ctx, "k", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	read := func(site tree.SiteID) []byte {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("site-%d.wal", site)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := read(1)
	if len(before) == 0 {
		t.Fatal("site 1 journaled nothing: the test would prove nothing")
	}
	if err := c.ApplyEvent(ctx, sched[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(1), before) {
		t.Error("the checkpoint rewrote crashed site 1's journal")
	}
	for _, site := range []tree.SiteID{2, 3, 4} {
		if n := journalRecords(t, dir, site); n > 1 {
			t.Errorf("site %d: %d records after the checkpoint, want at most 1", site, n)
		}
	}
	if err := c.ApplyEvent(ctx, sched[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitSync(ctx); err != nil {
		t.Fatal(err)
	}
	if rd, err := cli.Read(ctx, "k"); err != nil || string(rd.Value) != "5" {
		t.Errorf("read after recover + checkpoint = %q, %v; want 5", rd.Value, err)
	}
}

// TestCheckpointRacesCrashRecover: checkpoints racing a site's crashes and
// recoveries and a writer lose no acknowledged write: not on the live
// cluster, and with file journals not across a restart either.
func TestCheckpointRacesCrashRecover(t *testing.T) {
	for _, kind := range []string{"memory", "file"} {
		t.Run(kind, func(t *testing.T) {
			dir := ""
			if kind == "file" {
				dir = t.TempDir()
			}
			c := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir, ClientTimeout: 30 * time.Millisecond})
			cli := newClient(t, c)
			ctx := context.Background()
			acked := make(map[string]replica.Timestamp)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			loop := func(step func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							step()
						}
					}
				}()
			}
			loop(func() {
				_ = c.ApplyEvent(ctx, Event{Crash: []tree.SiteID{1}})
				time.Sleep(2 * time.Millisecond)
				_ = c.ApplyEvent(ctx, Event{Recover: []tree.SiteID{1}})
				time.Sleep(2 * time.Millisecond)
			})
			loop(func() {
				if err := c.ApplyEvent(ctx, Event{Checkpoint: true}); err != nil {
					t.Error(err)
				}
				time.Sleep(time.Millisecond)
			})
			for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
				for i := 0; i < 8; i++ {
					key := fmt.Sprintf("k%d", i)
					if wr, err := cli.Write(ctx, key, []byte(key)); err == nil {
						acked[key] = wr.TS
					}
				}
			}
			close(stop)
			wg.Wait()
			if len(acked) == 0 {
				t.Fatal("no write was acknowledged: the test exercised nothing")
			}

			check := func(c *Cluster, when string) {
				t.Helper()
				apply(t, c, "recoverall")
				if err := c.AwaitSync(ctx); err != nil {
					t.Fatal(err)
				}
				cli, err := c.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				for key, ts := range acked {
					rd, err := cli.Read(ctx, key)
					if err != nil || ts.After(rd.TS) {
						t.Errorf("%s: acknowledged %s@%v read back at %v, %v", when, key, ts, rd.TS, err)
					}
				}
			}
			check(c, "live")
			if dir == "" {
				return
			}
			c.Close()
			c2 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
			check(c2, "after restart")
		})
	}
}

// TestMemJournalHeapBounded: a cluster without WALDir journals in memory,
// one record per applied write, until a checkpoint compacts the journals.
// 20,000 writes of 128 B to 64 keys on 1-3-5 retain over 10 MiB of heap;
// after Checkpoint the cluster retains under 1 MiB more than it did empty.
func TestMemJournalHeapBounded(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	value := make([]byte, 128)
	for i := 0; i < 20000; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i%64), value); err != nil {
			t.Fatal(err)
		}
	}
	const mib = 1 << 20
	grown := int64(heap()) - int64(before)
	if grown < 10*mib {
		t.Errorf("20,000 writes retained %.1f MiB, want the uncompacted journals' > 10 MiB", float64(grown)/mib)
	}
	apply(t, c, "checkpoint")
	if after := int64(heap()) - int64(before); after >= mib {
		t.Errorf("after Checkpoint the cluster retains %.2f MiB, want < 1 MiB", float64(after)/mib)
	} else {
		t.Logf("retained %.1f MiB before Checkpoint, %.2f MiB after", float64(grown)/mib, float64(after)/mib)
	}
}

// TestWALDirRejectsLegacyJournal: a journal from before the binary record
// format stops the cluster from starting instead of being replayed as
// empty.
func TestWALDirRejectsLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	// A framed body whose first byte is in gob's range (a segment length).
	if err := os.WriteFile(filepath.Join(dir, "site-1.wal"), []byte{0, 0, 0, 3, 0x2b, 0xff, 0x81}, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := New(tr, Config{WALDir: dir}); err == nil {
		c.Close()
		t.Error("a legacy journal was accepted")
	}
}

func TestWALDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	c1 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
	cli1 := newClient(t, c1)
	for i := 0; i < 4; i++ {
		if _, err := cli1.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	// A brand new cluster on the same WAL directory recovers everything.
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(tr, Config{Seed: 3, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cli2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rd, err := cli2.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after restart: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}
	// And keeps journaling new writes.
	if _, err := cli2.Write(ctx, "k0", []byte("after-restart")); err != nil {
		t.Fatal(err)
	}
}

func TestWALDirCreationFailure(t *testing.T) {
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	// A file where the directory should be makes MkdirAll fail.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(tr, Config{WALDir: filepath.Join(blocker, "wal")}); err == nil {
		t.Error("cluster with unusable WAL dir started")
	}
}
