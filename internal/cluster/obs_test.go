package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

func newObservedCluster(t *testing.T, spec string, o *obs.Observer) (*Cluster, *tree.Tree) {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, Config{Seed: 1, ClientTimeout: 25 * time.Millisecond, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, tr
}

// TestTraceReadFallbackDuringOutage is the acceptance scenario: a read
// issued while one site of a level is down must still succeed, and its
// trace must show both the timed-out contact at the crashed site and the
// fallback site that served the level.
func TestTraceReadFallbackDuringOutage(t *testing.T) {
	o := obs.NewObserver(64)
	c, _ := newObservedCluster(t, "1-2-2", o)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	crashed := c.Protocol().LevelSites(0)[0]
	if err := c.Crash(crashed); err != nil {
		t.Fatal(err)
	}

	// A warm client learns to avoid the crashed site (and hedges around
	// it), so drive the fallback with cold clients: a cold level probes
	// sequentially in shuffled order, and within a few clients one must
	// try the crashed site first, time out, and fall back.
	for i := 0; i < 24; i++ {
		cold, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Read(ctx, "k"); err != nil {
			t.Fatalf("read %d during outage: %v", i, err)
		}
	}

	var sawFallback bool
	for _, tr := range o.Traces.Last(64) {
		if tr.Op != "read" || tr.Outcome != obs.OutcomeOK {
			continue
		}
		for _, a := range tr.Attempts {
			if len(a.Contacts) < 2 || !a.OK {
				continue
			}
			first, last := a.Contacts[0], a.Contacts[len(a.Contacts)-1]
			if first.Site == int(crashed) && first.TimedOut && last.Site != int(crashed) && last.Err == "" {
				sawFallback = true
			}
		}
	}
	if !sawFallback {
		t.Fatalf("no trace shows a timed-out contact at site %d followed by a fallback responder", crashed)
	}
}

// TestTraceWriteLevelFallback crashes one member of a level so that level
// can never assemble a write quorum: traces of successful writes that tried
// it first must show the failed 2PC attempt and the level that took over.
func TestTraceWriteLevelFallback(t *testing.T) {
	o := obs.NewObserver(64)
	c, _ := newObservedCluster(t, "1-2-2", o)
	ctx := context.Background()

	crashed := c.Protocol().LevelSites(1)[0]
	if err := c.Crash(crashed); err != nil {
		t.Fatal(err)
	}
	// A warm client learns (through version-discovery hedge wins) that the
	// crashed site makes level 1's 2PC hopeless and stops trying it, so
	// drive the fallback with cold clients: each picks its first 2PC level
	// uniformly, and within a few clients one must try level 1, fail the
	// prepare, and fall back.
	for i := 0; i < 24; i++ {
		cold, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	var sawFallback bool
	for _, tr := range o.Traces.Last(64) {
		if tr.Op != "write" || tr.Outcome != obs.OutcomeOK {
			continue
		}
		var failed2PC, ok2PC bool
		for _, a := range tr.Attempts {
			if a.Phase != "write-2pc" {
				continue
			}
			if !a.OK && a.Level == 1 {
				failed2PC = true
			}
			if a.OK && a.Level != 1 && failed2PC {
				ok2PC = true
			}
		}
		if failed2PC && ok2PC {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatal("no write trace shows a failed 2PC level attempt followed by success on another level")
	}
}

// TestLoadAttribution runs a write-only workload: version discovery must
// land in DiscoveryServes, leaving ReadServes zero everywhere.
func TestLoadAttribution(t *testing.T) {
	c, _ := newObservedCluster(t, "1-2-3", nil)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i%4), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.LoadReport()
	var discovery, writes uint64
	for _, s := range rep.Sites {
		if s.ReadServes != 0 {
			t.Errorf("site %d: ReadServes = %d under a write-only workload", s.Site, s.ReadServes)
		}
		discovery += s.DiscoveryServes
		writes += s.WriteServes
	}
	if discovery == 0 {
		t.Error("no DiscoveryServes recorded despite version discovery")
	}
	if writes == 0 {
		t.Error("no WriteServes recorded")
	}
}

// TestTheoryCheck compares the empirical load of a healthy balanced run
// against the Eq 3.2 closed forms.
func TestTheoryCheck(t *testing.T) {
	c, tr := newObservedCluster(t, "1-3-3", nil)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if i%3 == 0 {
			if _, err := cli.Write(ctx, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
		} else if _, err := cli.Read(ctx, key); err != nil && !errors.Is(err, client.ErrNotFound) {
			t.Fatal(err)
		}
	}
	check := c.TheoryCheck()
	a := core.Analyze(tr)
	if check.TheoryReadLoad != a.ReadLoad || check.TheoryWriteLoad != a.WriteLoad {
		t.Fatalf("theory fields %+v do not match core.Analyze %+v", check, a)
	}
	// With no failures the measured load may exceed the optimum only
	// through sampling noise, never by a whole extra quorum member.
	if check.EmpiricalReadLoad <= 0 || check.EmpiricalReadLoad > 1 {
		t.Errorf("empirical read load %v out of (0,1]", check.EmpiricalReadLoad)
	}
	if check.EmpiricalWriteLoad < a.WriteLoad || check.EmpiricalWriteLoad > 1 {
		t.Errorf("empirical write load %v outside [%v,1]", check.EmpiricalWriteLoad, a.WriteLoad)
	}
}

// TestClusterMetricsExposition checks that a cluster-attached registry
// exposes the per-site, per-level and latency families after traffic.
func TestClusterMetricsExposition(t *testing.T) {
	o := obs.NewObserver(16)
	c, _ := newObservedCluster(t, "1-2-2", o)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`arbor_replica_serves_total{site="1",type="read"}`,
		"arbor_cluster_level_serves{level=\"0\",kind=\"read\"}",
		"arbor_cluster_load{op=\"read\",source=\"theory\"}",
		"arbor_client_op_duration_seconds_bucket",
		"arbor_rpc_calls_total",
		"arbor_network_messages_sent_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestClientMetricsSumToRegistry: the per-client Metrics() counters, summed
// over a cluster's clients, equal the registry's arbor_client_* series the
// same clients feed — after successes, not-found reads and, with a whole
// level down, failed reads and writes.
func TestClientMetricsSumToRegistry(t *testing.T) {
	o := obs.NewObserver(16)
	c, _ := newObservedCluster(t, "1-3-5", o)
	ctx := context.Background()
	clients := []*client.Client{newClient(t, c), newClient(t, c), newClient(t, c)}
	run := func(n int) {
		for i := 0; i < n; i++ {
			for j, cli := range clients {
				key := fmt.Sprintf("k%d", (i+j)%5)
				if (i+j)%3 == 0 {
					_, _ = cli.Write(ctx, key, []byte("v")) // outcomes are what is counted
				} else {
					_, _ = cli.Read(ctx, key)
				}
			}
		}
	}
	run(30)
	if err := c.CrashLevel(0); err != nil {
		t.Fatal(err)
	}
	run(4)
	c.RecoverAll()

	var sum client.Metrics
	for _, cli := range c.Clients() {
		m := cli.Metrics()
		sum.Reads += m.Reads
		sum.ReadFailures += m.ReadFailures
		sum.Writes += m.Writes
		sum.WriteFailures += m.WriteFailures
		sum.ReadRefetches += m.ReadRefetches
	}
	if sum.Reads == 0 || sum.ReadFailures == 0 || sum.Writes == 0 || sum.WriteFailures == 0 {
		t.Fatalf("workload missed an outcome: %+v", sum)
	}
	reg := o.Registry
	ops := reg.CounterVec("arbor_client_ops_total", "", "op", "outcome")
	count := func(op string, outcomes ...string) uint64 {
		var n uint64
		for _, out := range outcomes {
			n += ops.With(op, out).Value()
		}
		return n
	}
	dur := reg.HistogramVec("arbor_client_op_duration_seconds", "", "op")
	for _, tc := range []struct {
		name          string
		perClient, in uint64
	}{
		{"reads", sum.Reads, count("read", obs.OutcomeOK, obs.OutcomeNotFound)},
		{"read failures", sum.ReadFailures, count("read", obs.OutcomeUnavailable, obs.OutcomeError)},
		{"writes", sum.Writes, count("write", obs.OutcomeOK, obs.OutcomeInDoubt)},
		{"write failures", sum.WriteFailures, count("write", obs.OutcomeUnavailable)},
		{"timed reads", sum.Reads + sum.ReadFailures, dur.With("read").Count()},
		{"timed writes", sum.Writes + sum.WriteFailures, dur.With("write").Count()},
		{"read refetches", sum.ReadRefetches, reg.Counter("arbor_client_read_refetches_total", "").Value()},
	} {
		if tc.perClient != tc.in {
			t.Errorf("%s: clients' Metrics() sum to %d, the registry holds %d", tc.name, tc.perClient, tc.in)
		}
	}
}

// TestStatsSnapshotConsistent reconfigures concurrently with snapshots and
// checks every snapshot holds a matching (tree, protocol) pair.
func TestStatsSnapshotConsistent(t *testing.T) {
	// The two shapes have different physical level counts, so a mixed
	// (tree, protocol) pair is detectable.
	c, _ := newObservedCluster(t, "1-2-4", nil)
	specA, _ := tree.ParseSpec("1-2-4")
	specB, _ := tree.ParseSpec("1-2-2-2")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			next := specB
			if i%2 == 1 {
				next = specA
			}
			if err := c.Reconfigure(next); err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		snap := c.StatsSnapshot()
		if snap.Tree.NumPhysicalLevels() != snap.Proto.NumPhysicalLevels() {
			t.Fatalf("snapshot mixes configurations: tree has %d physical levels, protocol %d",
				snap.Tree.NumPhysicalLevels(), snap.Proto.NumPhysicalLevels())
		}
		// The theory check must always be computable on the pair.
		_ = snap.TheoryCheck()
	}
	<-done
}

// BenchmarkObserverOverhead measures the end-to-end cost a live observer
// adds to cluster reads, against the nil-observer baseline the hot paths
// take when observability is off.
func BenchmarkObserverOverhead(b *testing.B) {
	run := func(b *testing.B, o *obs.Observer) {
		tr, err := tree.ParseSpec("1-2-3")
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(tr, Config{Seed: 1, Observer: o})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cli, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Read(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("observer-off", func(b *testing.B) { run(b, nil) })
	b.Run("observer-on", func(b *testing.B) { run(b, obs.NewObserver(512)) })
}
