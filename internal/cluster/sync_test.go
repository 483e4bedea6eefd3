package cluster

import (
	"context"
	"fmt"
	"strings"
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

// TestRecoverCatchesUp: a site that slept through a series of writes comes
// back through the catching-up state and ends live with every missed
// version installed.
func TestRecoverCatchesUp(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	apply(t, c, "crash=1")
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

	apply(t, c, "recover=1")
	awaitSync(t, c)

	if h := c.Replica(1).Health(); h != replica.HealthLive {
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
	r.Recover(stuck)
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
	// Point it at the real peers (Crash aborts the stuck pass) and let it
	// finish.
	r.Crash()
	r.Recover(c.syncPlanFor(2))
	awaitSync(t, c)
	if h := r.Health(); h != replica.HealthLive {
		t.Fatalf("health = %v, want live after sync", h)
	}
}

// TestRecoverClosesPartitionGaps: a recover= event on every site also
// repairs live replicas that missed commits behind a healed partition,
// restoring the full durability margin without any crash involved.
func TestRecoverClosesPartitionGaps(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if err := c.ApplyEvent(ctx, Event{Partition: [][]tree.SiteID{{1}}}); err != nil {
		t.Fatal(err)
	}
	wr, err := cli.Write(ctx, "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyEvent(ctx, Event{Heal: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, found := c.Replica(1).Store().Get("k"); found {
		t.Fatal("site 1 has k although it was partitioned away from the write")
	}
	if err := c.ApplyEvent(ctx, Event{Recover: c.Tree().Sites()}); err != nil {
		t.Fatal(err)
	}
	awaitSync(t, c)
	if _, ts, found := c.Replica(1).Store().Get("k"); !found || ts != wr.TS {
		t.Errorf("site 1 has k at %v (found=%v), want %v", ts, found, wr.TS)
	}
}

// TestScheduleRecoverSyncVerbs drives recovery through the schedule
// machinery end to end, and holds the refusal of the sync verbs that went
// when every recovery began to catch up.
func TestScheduleRecoverSyncVerbs(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	apply(t, c, "crash=1")
	wr, err := cli.Write(ctx, "k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ParseSchedule("0ms:recover=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyEvent(context.Background(), sched[0]); err != nil {
		t.Fatal(err)
	}
	awaitSync(t, c)
	if h := c.Replica(1).Health(); h != replica.HealthLive {
		t.Fatalf("health = %v, want live", h)
	}
	if _, ts, _ := c.Replica(1).Store().Get("k"); ts != wr.TS {
		t.Errorf("recovered site 1 has k at %v, want the write it missed, %v", ts, wr.TS)
	}
	for _, suffix := range []string{"sync=1", "allsync"} {
		_, err := ParseSchedule("0ms:recover" + suffix)
		if err == nil || !strings.Contains(err.Error(), "recover=<sites> or recoverall") {
			t.Errorf("recover%s: err = %v, want a refusal that names recover= and recoverall", suffix, err)
		}
	}
}

// TestAwaitSyncSkipsBlockedCatchUp: a catch-up whose plan has a level with
// no member that is up and reachable cannot progress, so AwaitSync returns
// at once instead of charging the wait to the protocol; a heal or a
// recovery unblocks it, and AwaitSync then waits for it.
func TestAwaitSyncSkipsBlockedCatchUp(t *testing.T) {
	for _, tc := range []struct {
		name, block, unblock string
	}{
		{"partitioned alone", "partition=1", "heal"},
		{"other level down", "crash=4,5,6,7,8", "recoverall"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, "1-3-5") // physical levels {1,2,3} and {4,...,8}
			apply(t, c, "crash=1")
			apply(t, c, tc.block)
			apply(t, c, "recover=1")
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := c.AwaitSync(ctx); err != nil {
				t.Fatalf("AwaitSync waited on a blocked catch-up: %v", err)
			}
			if h := c.Replica(1).Health(); h != replica.HealthCatchingUp {
				t.Fatalf("site 1 health = %v while blocked, want catching-up", h)
			}
			apply(t, c, tc.unblock)
			awaitSync(t, c)
			if h := c.Replica(1).Health(); h != replica.HealthLive {
				t.Errorf("site 1 health = %v after the unblock, want live", h)
			}
		})
	}
}
