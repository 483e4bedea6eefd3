package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

func newCluster(t *testing.T, spec string) *Cluster {
	t.Helper()
	return newConfiguredCluster(t, spec, Config{})
}

// newConfiguredCluster builds the tree's cluster on seed 1, with a 100ms
// client timeout unless cfg sets one.
func newConfiguredCluster(t *testing.T, spec string, cfg Config) *Cluster {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	if cfg.ClientTimeout == 0 {
		cfg.ClientTimeout = 100 * time.Millisecond
	}
	c, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func newClient(t *testing.T, c *Cluster) *client.Client {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

func TestWriteThenRead(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	wr, err := cli.Write(ctx, "k", []byte("v1"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if wr.TS.Version != 1 {
		t.Errorf("first write version = %d, want 1", wr.TS.Version)
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(rd.Value) != "v1" || rd.TS != wr.TS {
		t.Errorf("read = %q %v, want v1 %v", rd.Value, rd.TS, wr.TS)
	}
}

func TestReadMissingKey(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	if _, err := cli.Read(context.Background(), "nope"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

// TestOneCopyEquivalenceSequential: a sequence of writes and reads behaves
// like a single copy — every read returns the latest committed write, even
// though each write touches only one physical level.
func TestOneCopyEquivalenceSequential(t *testing.T) {
	c := newCluster(t, "1-3-5+4")
	cli := newClient(t, c)
	ctx := context.Background()

	for i := 1; i <= 20; i++ {
		want := fmt.Sprintf("v%d", i)
		wr, err := cli.Write(ctx, "k", []byte(want))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if wr.TS.Version != uint64(i) {
			t.Fatalf("write %d got version %d", i, wr.TS.Version)
		}
		rd, err := cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(rd.Value) != want {
			t.Fatalf("read %d = %q, want %q", i, rd.Value, want)
		}
	}
}

// TestWritesLandOnDifferentLevels: the uniform write strategy spreads
// writes over both physical levels, and reads still always see the latest.
func TestWritesLandOnDifferentLevels(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	levels := make(map[int]int)
	for i := 0; i < 40; i++ {
		wr, err := cli.Write(ctx, "k", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		levels[wr.Level]++
	}
	if len(levels) != 2 {
		t.Errorf("writes used levels %v, want both", levels)
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "v39" {
		t.Errorf("final read = %q, want v39", rd.Value)
	}
}

// TestRootCrashDoesNotBlockWrites: unlike the classic tree protocols the
// paper improves upon, crashing nodes of one level only redirects writes to
// other levels.
func TestCrashedLevelRedirectsWrites(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Crash one replica of level 0 (sites 1..3): level 0 can no longer
	// form a write quorum, but level 1 can.
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		wr, err := cli.Write(ctx, "k", []byte(fmt.Sprintf("after%d", i)))
		if err != nil {
			t.Fatalf("write with crashed site: %v", err)
		}
		if wr.Level != 1 {
			t.Errorf("write landed on level %d, want 1 (level 0 has a dead member)", wr.Level)
		}
	}
	// Reads still work: level 0 has two live members.
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "after4" {
		t.Errorf("read = %q", rd.Value)
	}
}

// TestWholeLevelDownBlocksReadsButNotWrites: with level 0 fully crashed,
// reads (which need every level) fail, while writes proceed on level 1.
func TestWholeLevelDownBlocksReadsButNotWrites(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashLevel(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(ctx, "k"); !errors.Is(err, client.ErrReadUnavailable) {
		t.Errorf("read err = %v, want ErrReadUnavailable", err)
	}
	// Writes fail too: version discovery needs a read-shaped quorum.
	if _, err := cli.Write(ctx, "k", []byte("v2")); !errors.Is(err, client.ErrWriteUnavailable) {
		t.Errorf("write err = %v, want ErrWriteUnavailable", err)
	}
	// Recovery restores service and stable storage.
	c.RecoverAll()
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "v1" {
		t.Errorf("post-recovery read = %q", rd.Value)
	}
}

// TestEveryLevelPartialCrashBlocksWrites: one dead replica in every
// physical level leaves reads available but no write quorum — the exact
// failure mode of WR_fail(p).
func TestEveryLevelPartialCrashBlocksWrites(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil { // level 0 member
		t.Fatal(err)
	}
	if err := c.Crash(4); err != nil { // level 1 member
		t.Fatal(err)
	}
	if _, err := cli.Read(ctx, "k"); err != nil {
		t.Errorf("read should survive partial crashes: %v", err)
	}
	if _, err := cli.Write(ctx, "k", []byte("v2")); !errors.Is(err, client.ErrWriteUnavailable) {
		t.Errorf("write err = %v, want ErrWriteUnavailable", err)
	}
}

// TestReadAfterWriteAcrossFailures: the freshest value survives arbitrary
// crash/recover cycles because some read-quorum member always holds it.
func TestReadAfterWriteAcrossFailures(t *testing.T) {
	c := newCluster(t, "1-2-4")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	wr, err := cli.Write(ctx, "k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	// Crash one non-written level replica and read.
	victim := tree.SiteID(1)
	if wr.Level == 0 {
		victim = 3
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "v2" {
		t.Errorf("read = %q, want v2", rd.Value)
	}
}

func TestPartitionBlocksMinorityLevels(t *testing.T) {
	c := newCluster(t, "1-2-4")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Cut level 0 (sites 1,2) away: they form their own partition group,
	// while the unlisted level-1 sites and all clients share the implicit
	// group. No read quorum can reach level 0 anymore.
	if err := c.Partition([]tree.SiteID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(ctx, "k"); !errors.Is(err, client.ErrReadUnavailable) {
		t.Errorf("read across partition = %v, want ErrReadUnavailable", err)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(ctx, "k"); err != nil {
		t.Errorf("read after heal: %v", err)
	}
}

func TestTwoClientsSeeEachOthersWrites(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli1 := newClient(t, c)
	cli2 := newClient(t, c)
	ctx := context.Background()

	if _, err := cli1.Write(ctx, "k", []byte("from-1")); err != nil {
		t.Fatal(err)
	}
	rd, err := cli2.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "from-1" {
		t.Errorf("client 2 read %q", rd.Value)
	}
	if _, err := cli2.Write(ctx, "k", []byte("from-2")); err != nil {
		t.Fatal(err)
	}
	rd, err = cli1.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "from-2" {
		t.Errorf("client 1 read %q", rd.Value)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{LockTTL: 200 * time.Millisecond})
	ctx := context.Background()
	const writers = 4
	clients := make([]*client.Client, writers)
	for i := range clients {
		clients[i] = newClient(t, c)
	}
	done := make(chan error, writers)
	for i, cli := range clients {
		go func(i int, cli *client.Client) {
			var lastErr error
			for j := 0; j < 10; j++ {
				_, err := cli.Write(ctx, "k", []byte(fmt.Sprintf("w%d-%d", i, j)))
				if err != nil && !errors.Is(err, client.ErrWriteUnavailable) {
					lastErr = err
					break
				}
			}
			done <- lastErr
		}(i, cli)
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Errorf("writer error: %v", err)
		}
	}
	// A quorum read succeeds and observes some committed write.
	rd, err := clients[0].Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if rd.TS.Version == 0 {
		t.Error("no write ever succeeded")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := newCluster(t, "1-3-5")
	if c.Tree().N() != 8 {
		t.Errorf("Tree().N() = %d", c.Tree().N())
	}
	if c.Protocol().NumPhysicalLevels() != 2 {
		t.Error("Protocol() mismatch")
	}
	if c.Replica(1) == nil || c.Replica(99) != nil {
		t.Error("Replica accessor mismatch")
	}
	if err := c.Crash(99); err == nil {
		t.Error("Crash(99) accepted")
	}
	if err := c.Recover(99); err == nil {
		t.Error("Recover(99) accepted")
	}
	if err := c.CrashLevel(5); err == nil {
		t.Error("CrashLevel(5) accepted")
	}
	st := c.NetworkStats()
	if st.Sent != 0 {
		t.Errorf("fresh cluster stats = %+v", st)
	}
	c.Close()
	c.Close() // idempotent
}

// TestDefaultConfigKeepsDefaults: a configuration that sets only the seed
// builds what an unconfigured cluster always was: seed 1, a 250ms client
// timeout and a 2s lock TTL on the in-memory network.
func TestDefaultConfigKeepsDefaults(t *testing.T) {
	tr, err := tree.ParseSpec("1-2-2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.cfg.Seed != 1 || c.cfg.ClientTimeout != 250*time.Millisecond || c.cfg.LockTTL != 2*time.Second {
		t.Errorf("seed %d, client timeout %v, lock TTL %v; want 1, 250ms, 2s",
			c.cfg.Seed, c.cfg.ClientTimeout, c.cfg.LockTTL)
	}
	if c.sim == nil {
		t.Error("default cluster is not on the in-memory network")
	}
}

func TestWithLinkLatencyGeoTopology(t *testing.T) {
	// Level 0 (sites 1..3) is "local" to the client; level 1 (sites 4..8)
	// sits across a slow 30ms link. Reads must touch both levels, so their
	// latency is dominated by the remote level.
	slow := func(from, to transport.Addr) time.Duration {
		if from >= 4 || to >= 4 {
			return 30 * time.Millisecond
		}
		return 0
	}
	c := newConfiguredCluster(t, "1-3-5", Config{Net: transport.NetConfig{LinkLatency: slow}})
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cli.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 55*time.Millisecond { // request+reply over the slow link
		t.Errorf("geo read took %v, want ≥ ~60ms", e)
	}
}

func TestClustersClientsAccessor(t *testing.T) {
	c := newCluster(t, "1-3-5")
	if len(c.Clients()) != 0 {
		t.Error("fresh cluster has clients")
	}
	newClient(t, c)
	newClient(t, c)
	if len(c.Clients()) != 2 {
		t.Errorf("Clients() = %d, want 2", len(c.Clients()))
	}
}
