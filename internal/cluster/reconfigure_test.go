package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

// TestReconfigurePreservesData: the writes land on the level the new
// tree's smallest level shares no site with, so only the migration's
// catch-up can bring them there.
func TestReconfigurePreservesData(t *testing.T) {
	c := newCluster(t, "1-4-4") // levels {1..4} and {5..8}
	cli := newClient(t, c)
	ctx := context.Background()

	written := make(map[string]replica.Timestamp)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		wr, err := cli.WriteAt(ctx, key, []byte(fmt.Sprintf("v%d", i)), 1)
		if err != nil || wr.Level != 1 {
			t.Fatalf("write %s: level %d, %v; want level 1", key, wr.Level, err)
		}
		written[key] = wr.TS
	}

	// Reshape into the 1-3-5 two-level tree (same 8 replicas): its smallest
	// level, {1,2,3}, held none of the writes.
	apply(t, c, "reconfigure=1-3-5")
	if c.Tree().Spec() != "1-3-5" {
		t.Errorf("cluster tree = %s", c.Tree().Spec())
	}
	if cli.Protocol().NumPhysicalLevels() != 2 {
		t.Errorf("client still on old protocol (%d levels)", cli.Protocol().NumPhysicalLevels())
	}
	for key, ts := range written {
		assertHolds(t, c, []tree.SiteID{1, 2, 3}, key, ts)
	}

	// Every key written before reconfiguration is visible through the new
	// quorum shapes.
	for i := 0; i < 5; i++ {
		rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after reconfigure: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}

	// Writes continue under the new shape and reads see them.
	if _, err := cli.Write(ctx, "k0", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	rd, err := cli.Read(ctx, "k0")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "updated" {
		t.Errorf("post-reconfigure write invisible: %q", rd.Value)
	}
}

// assertHolds fails unless every one of sites holds key at ts.
func assertHolds(t *testing.T, c *Cluster, sites []tree.SiteID, key string, ts replica.Timestamp) {
	t.Helper()
	for _, site := range sites {
		if got, found := c.Replica(site).Store().Version(key); !found || got != ts {
			t.Errorf("site %d holds %s at %v (found=%v), want %v", site, key, got, found, ts)
		}
	}
}

func TestReconfigureRoundTripSpectrum(t *testing.T) {
	// Walk a key through three configurations: read-optimized → balanced →
	// write-optimized, verifying the latest value at each step. Each write
	// lands on the current tree's last level, which shares no site with the
	// next tree's smallest level (target) but on the first step, from 1-9's
	// one level.
	c := newCluster(t, "1-9")
	cli := newClient(t, c)
	ctx := context.Background()

	shapes := []struct {
		spec   string
		target []tree.SiteID
	}{
		{"1-4-5", []tree.SiteID{1, 2, 3, 4}},
		{"1-2-3-4", []tree.SiteID{1, 2}},
		{"1-2-2-2-3", []tree.SiteID{1, 2}},
	}
	for i, shape := range shapes {
		last := cli.Protocol().NumPhysicalLevels() - 1
		value := fmt.Sprintf("v%d", i+1)
		wr, err := cli.WriteAt(ctx, "k", []byte(value), last)
		if err != nil || wr.Level != last {
			t.Fatalf("write before %s: level %d, %v; want level %d", shape.spec, wr.Level, err, last)
		}
		apply(t, c, "reconfigure=%s", shape.spec)
		assertHolds(t, c, shape.target, "k", wr.TS)
		rd, err := cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read under %s: %v", shape.spec, err)
		}
		if string(rd.Value) != value {
			t.Fatalf("under %s read %q, want %q", shape.spec, rd.Value, value)
		}
	}
}

func TestReconfigureValidation(t *testing.T) {
	c := newCluster(t, "1-3-5")
	ctx := context.Background()
	if err := c.ApplyEvent(ctx, event(t, "reconfigure=1-3-4")); err == nil { // 7 replicas ≠ 8
		t.Error("replica-count mismatch accepted")
	}
	apply(t, c, "crash=3")
	if err := c.ApplyEvent(ctx, event(t, "reconfigure=1-2-6")); err == nil {
		t.Error("reconfigure with a crashed replica accepted")
	}
	apply(t, c, "recoverall")
	apply(t, c, "reconfigure=1-2-6")
}

func TestReconfigureVersionsKeepIncreasing(t *testing.T) {
	// Version numbers must not regress across a reconfiguration, or later
	// writes could be shadowed.
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	var last uint64
	for i := 0; i < 3; i++ {
		wr, err := cli.Write(ctx, "k", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if wr.TS.Version <= last {
			t.Fatalf("version regressed: %d after %d", wr.TS.Version, last)
		}
		last = wr.TS.Version
	}
	apply(t, c, "reconfigure=1-2-2-4")
	wr, err := cli.Write(ctx, "k", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.TS.Version <= last {
		t.Errorf("post-reconfigure version %d not above %d", wr.TS.Version, last)
	}
}

// TestReconfigureRefusesUnjournaledMigration: a migration whose pulls the
// target's journal fails to append never ends, and the reconfiguration
// fails when its ctx does, before any client leaves the old tree.
func TestReconfigureRefusesUnjournaledMigration(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{WALDir: t.TempDir()})
	cli := newClient(t, c)
	if _, err := cli.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.wals {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// 1-8 is one level of all eight sites: half of them lack k.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.ApplyEvent(ctx, event(t, "reconfigure=1-8")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a migration no journal took ended with %v, want the ctx's deadline", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the failed reconfigure took %v, past its 200ms ctx", d)
	}
	assertOldConfig(t, c, cli)
}

// assertOldConfig fails unless the cluster and cli are still on 1-3-5.
func assertOldConfig(t *testing.T, c *Cluster, cli *client.Client) {
	t.Helper()
	if spec := c.Tree().Spec(); spec != "1-3-5" {
		t.Errorf("cluster tree = %s after a failed reconfigure, want 1-3-5", spec)
	}
	if n := cli.Protocol().NumPhysicalLevels(); n != 2 {
		t.Errorf("client on a %d-level protocol after a failed reconfigure, want the old 2", n)
	}
}

// TestReconfigureBlockedTargetFailsAtOnce: a target whose catch-up plan a
// partition blocks fails the call before any pass starts.
func TestReconfigureBlockedTargetFailsAtOnce(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	if _, err := cli.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// 1-2-6's smallest level is sites 1 and 2, whose plan on 1-3-5 is the
	// level of sites 4–8: out of reach across the partition.
	apply(t, c, "partition=1,2,3/4,5,6,7,8")
	start := time.Now()
	if err := c.ApplyEvent(context.Background(), event(t, "reconfigure=1-2-6")); err == nil {
		t.Fatal("a reconfigure whose target cannot catch up succeeded")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("the blocked reconfigure took %v, want an answer at once", d)
	}
	for _, site := range []tree.SiteID{1, 2} {
		if p := c.Replica(site).SyncProgress(); p.Active || p.Completions != 0 {
			t.Errorf("site %d started a catch-up for a refused reconfigure: %+v", site, p)
		}
	}
	assertOldConfig(t, c, cli)
}

// TestReconfigureOverTCP migrates by messages across sockets: 20 keys
// written on 1-3-5 read back their last values after a reshape to 1-8 and
// back.
func TestReconfigureOverTCP(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{TCP: true})
	cli := newClient(t, c)
	ctx := context.Background()
	const keys = 20
	for round := 0; round < 2; round++ {
		for i := 0; i < keys; i++ {
			if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d.%d", i, round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, spec := range []string{"1-8", "1-3-5"} {
		apply(t, c, "reconfigure=%s", spec)
		for i := 0; i < keys; i++ {
			rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i))
			if err != nil {
				t.Fatalf("read k%d on %s: %v", i, spec, err)
			}
			if want := fmt.Sprintf("v%d.1", i); string(rd.Value) != want {
				t.Errorf("k%d on %s = %q, want %q", i, spec, rd.Value, want)
			}
		}
	}
}

// TestApplyEventReconfigure: the reconfigure verb parses — a spec's '+'
// before a digit included — renders back, and applied reshapes the
// cluster; a spec that is no tree is refused by the parser.
func TestApplyEventReconfigure(t *testing.T) {
	const in = "10ms:reconfigure=1-3-5+4;20ms:drain=1+reconfigure=1-2-6+checkpoint"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.String(); got != in {
		t.Fatalf("Schedule.String() = %q, want %q", got, in)
	}
	if sched[0].Reconfigure.Spec() != "1-3-5+4" || sched[1].Reconfigure.Spec() != "1-2-6" || !sched[1].Checkpoint {
		t.Fatalf("reconfigure not parsed: %+v", sched)
	}
	if _, err := ParseSchedule("10ms:reconfigure=1-x"); err == nil {
		t.Error("a reconfigure to no tree parsed")
	}

	c := newCluster(t, "1-8")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyEvent(ctx, sched[0]); err != nil {
		t.Fatal(err)
	}
	if spec := c.Tree().Spec(); spec != "1-3-5+4" {
		t.Errorf("cluster tree = %s, want 1-3-5+4", spec)
	}
	if rd, err := cli.Read(ctx, "k"); err != nil || string(rd.Value) != "v" {
		t.Errorf("read after the reconfigure event: %q %v", rd.Value, err)
	}
	// A drain in the same event leaves a site down: the reconfiguration,
	// applied after it, is refused.
	if err := c.ApplyEvent(ctx, sched[1]); err == nil {
		t.Error("a reconfigure after a drain in the same event applied")
	}
	if spec := c.Tree().Spec(); spec != "1-3-5+4" {
		t.Errorf("cluster tree = %s after a refused reconfigure, want 1-3-5+4", spec)
	}
}

// TestNewResumesRecordedTree: New on a WALDir that recorded a tree resumes
// that tree, whatever tree it is given, and a reconfiguration rewrites the
// record, so a restart comes back on the tree it left.
func TestNewResumesRecordedTree(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c1 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
	cli1 := newClient(t, c1)
	if _, err := cli1.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	apply(t, c1, "reconfigure=1-2-2-2-2")
	if _, err := cli1.Write(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
	if spec := c2.Tree().Spec(); spec != "1-2-2-2-2" {
		t.Fatalf("restart on the directory came back on %s, want the recorded 1-2-2-2-2", spec)
	}
	if rd, err := newClient(t, c2).Read(ctx, "k"); err != nil || string(rd.Value) != "v2" {
		t.Errorf("read after the restart: %q %v, want v2", rd.Value, err)
	}
	c2.Close()

	if err := os.WriteFile(filepath.Join(dir, treeRecord), []byte("1-x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := New(tr, Config{WALDir: dir}); err == nil {
		c.Close()
		t.Error("New resumed a record that names no tree")
	}
}

// TestReconfigureSerializesWithCrashRecover applies a reconfigure= event
// and a crash= or recover= event from two goroutines at once, round after
// round. Each round must end as one serial order of the two leaves it: the
// fault applied, and the tree either reshaped (the reconfiguration went
// first, or after the recovery) or unchanged with the reconfiguration
// refused for the crashed site. Every write acknowledged before a round
// reads back after it.
func TestReconfigureSerializesWithCrashRecover(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	acked := make(map[string]string)
	for round := 0; round < 8; round++ {
		key, val := fmt.Sprintf("k%d", round), fmt.Sprintf("v%d", round)
		if _, err := cli.Write(ctx, key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		acked[key] = val
		site, crash := 1+round, round%2 == 0
		fault := event(t, "crash=%d", site)
		if !crash {
			apply(t, c, "crash=%d", site)
			fault = event(t, "recover=%d", site)
		}
		from, to := c.Tree().Spec(), "1-4-4"
		if from == to {
			to = "1-3-5"
		}
		reshape := event(t, "reconfigure=%s", to)

		var wg sync.WaitGroup
		var reshapeErr, faultErr error
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; reshapeErr = c.ApplyEvent(ctx, reshape) }()
		go func() { defer wg.Done(); <-start; faultErr = c.ApplyEvent(ctx, fault) }()
		close(start)
		wg.Wait()

		if faultErr != nil {
			t.Fatalf("round %d: %s: %v", round, fault, faultErr)
		}
		if down := c.Replica(tree.SiteID(site)).Crashed(); down != crash {
			t.Fatalf("round %d: after %s site %d is down = %v", round, fault, site, down)
		}
		switch spec := c.Tree().Spec(); {
		case reshapeErr == nil && spec != to:
			t.Fatalf("round %d: %s applied, but the tree is %s", round, reshape, spec)
		case reshapeErr != nil && (spec != from || !strings.Contains(reshapeErr.Error(), "is crashed")):
			t.Fatalf("round %d: %s refused (%v) with the tree %s; only a crash may refuse it, leaving %s",
				round, reshape, reshapeErr, spec, from)
		}
		for k, v := range acked {
			if rd, err := cli.Read(ctx, k); err != nil || string(rd.Value) != v {
				t.Fatalf("round %d: %s = %q, %v; want %q", round, k, rd.Value, err, v)
			}
		}
		apply(t, c, "recoverall")
		awaitSync(t, c)
	}
}
