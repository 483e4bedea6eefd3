package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// awaitSync waits for every replica to settle (no catching-up, no active
// sync pass) with a test-sized deadline.
func awaitSync(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitSync(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithSyncCatchesUp: a site that slept through a series of
// writes comes back through the catching-up state and ends live with every
// missed version installed.
func TestRecoverWithSyncCatchesUp(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	// Site 1 is physical level 0's only member, so every write now lands
	// on another level — exactly the writes catch-up must recover.
	var lastTS replica.Timestamp
	for i := 2; i <= 6; i++ {
		wr, err := cli.Write(ctx, "k", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		lastTS = wr.TS
	}
	if _, err := cli.Write(ctx, "other", []byte("x")); err != nil {
		t.Fatal(err)
	}

	if err := c.RecoverWithSync(1); err != nil {
		t.Fatal(err)
	}
	awaitSync(t, c)

	if h, _ := c.Health(1); h != replica.HealthLive {
		t.Fatalf("health after sync = %v, want live", h)
	}
	_, ts, found := c.Replica(1).Store().Get("k")
	if !found || ts != lastTS {
		t.Errorf("site 1 has k at %v (found=%v), want %v", ts, found, lastTS)
	}
	if _, _, found := c.Replica(1).Store().Get("other"); !found {
		t.Error("site 1 missing key written while it was down")
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil || string(rd.Value) != "v6" {
		t.Errorf("read after sync = %q, %v; want v6", rd.Value, err)
	}
}

// TestInstantRecoveryLeavesGap guards the premise of the anti-entropy
// experiment: legacy instant recovery brings the site back live without the
// versions it slept through.
func TestInstantRecoveryLeavesGap(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	wr, err := cli.Write(ctx, "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Health(1); h != replica.HealthLive {
		t.Fatalf("health after instant recovery = %v, want live", h)
	}
	if _, ts, found := c.Replica(1).Store().Get("k"); found && ts == wr.TS {
		t.Error("instant recovery unexpectedly produced the missed write")
	}
}

// TestReadsSucceedWhileCatchingUp: a catching-up replica refuses reads, but
// the quorum engine routes around it, so client reads stay available for
// the whole catch-up window.
func TestReadsSucceedWhileCatchingUp(t *testing.T) {
	c := newCluster(t, "1-2-4")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	r := c.Replica(2)
	r.Crash()
	if _, err := cli.Write(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Pin the replica in the catching-up state: its sync plan points at an
	// address nothing is registered on, so the pass retries forever and the
	// replica keeps refusing reads. Level 0's other member must carry the
	// read quorum the whole time.
	stuck := replica.SyncPlan{
		Peers:  [][]transport.Addr{{transport.Addr(9999)}},
		Config: replica.SyncConfig{CallTimeout: 20 * time.Millisecond},
	}
	r.RecoverCatchingUp(stuck)
	if h := r.Health(); h != replica.HealthCatchingUp {
		t.Fatalf("health = %v, want catching-up", h)
	}
	for i := 0; i < 5; i++ {
		rd, err := cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read %d during catch-up: %v", i, err)
		}
		if string(rd.Value) != "v2" {
			t.Fatalf("read %d = %q, want v2", i, rd.Value)
		}
	}
	if h := r.Health(); h != replica.HealthCatchingUp {
		t.Fatalf("health drifted to %v mid-test", h)
	}
	// Point it at the real peers (Crash aborts the stuck pass, cursors
	// survive) and let it finish.
	r.Crash()
	r.RecoverCatchingUp(c.syncPlanFor(2))
	awaitSync(t, c)
	if h, _ := c.Health(2); h != replica.HealthLive {
		t.Fatalf("health = %v, want live after sync", h)
	}
}

// TestSyncAllClosesPartitionGaps: SyncAll also repairs live replicas that
// missed commits (e.g. behind a healed partition), restoring the full
// durability margin without any crash involved.
func TestSyncAllClosesPartitionGaps(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	wr, err := cli.Write(ctx, "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(1); err != nil { // instant: live but stale
		t.Fatal(err)
	}
	c.SyncAll()
	awaitSync(t, c)
	for _, site := range []tree.SiteID{1} {
		if _, ts, found := c.Replica(site).Store().Get("k"); !found || ts != wr.TS {
			t.Errorf("site %d has k at %v (found=%v), want %v", site, ts, found, wr.TS)
		}
	}
}

// TestScheduleRecoverSyncVerbs drives the sync verbs through the schedule
// machinery end to end.
func TestScheduleRecoverSyncVerbs(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	sched, err := ParseSchedule("0ms:crash=1;0ms:recoversync=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched {
		if err := c.ApplyEvent(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	awaitSync(t, c)
	if h, _ := c.Health(1); h != replica.HealthLive {
		t.Fatalf("health = %v, want live", h)
	}
}
