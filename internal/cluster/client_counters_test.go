package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

// newPinnedCluster builds a seeded in-memory cluster whose clients run on
// the default 250 ms timeout with hedging off: no healthy reply can expire
// or be hedged, however busy the machine, so every count a scripted run
// leaves is a function of the script and the seed alone. A crashed site
// still costs a full timeout and a fallback.
func newPinnedCluster(t *testing.T, spec string, o *obs.Observer) (*Cluster, *tree.Tree) {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, Config{Seed: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, tr
}

// pinnedClient is a client of newPinnedCluster: hedging off, opts on top.
func pinnedClient(t *testing.T, c *Cluster, opts ...client.Option) *client.Client {
	t.Helper()
	cli, err := c.NewClient(append([]client.Option{client.WithHedging(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

// TestClientCountersPinned drives a scripted, seeded run through the paths
// that move a client or contact series — plain reads and writes, a two-key
// transaction, a saturated site and then a saturated level shedding, a
// crashed site timing out (site and level fallbacks, and a failed prepare's
// one-way aborts), and a transaction whose deadline ran out between its
// reads and its commit — and holds every arbor_client_* and arbor_rpc_* line
// of /metrics, and every client's Metrics(), to literals. Histogram buckets
// and sums, which are timings, are left out; their counts are held. In-doubt
// writes are not scripted: nothing here can make a prepared member miss a
// commit deterministically.
func TestClientCountersPinned(t *testing.T) {
	o := obs.NewObserver(16)
	c, _ := newPinnedCluster(t, "1-2-2", o)
	cli := pinnedClient(t, c)
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Plain traffic, a read of a key nobody stores, a two-key transaction.
	keys := []string{"a", "b", "c"}
	for i := 0; i < 9; i++ {
		k := keys[i%len(keys)]
		if i < len(keys) {
			_, err := cli.Write(ctx, k, []byte(fmt.Sprint("v", i)))
			must(err)
		} else {
			_, err := cli.Read(ctx, k)
			must(err)
		}
	}
	if _, err := cli.Read(ctx, "nobody"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("read of an unwritten key: %v, want ErrNotFound", err)
	}
	txn := cli.NewTxn()
	_, err := txn.Read(ctx, "a")
	must(err)
	must(txn.Write("a", []byte("t1")))
	must(txn.Write("d", []byte("t2")))
	must(txn.Commit(ctx))

	// One saturated site sheds and its sibling serves; then the whole level
	// sheds, and reads and writes fail on it.
	apply(t, c, "saturate=1")
	for i := 0; i < 4; i++ {
		_, err := cli.Read(ctx, keys[i%len(keys)])
		must(err)
	}
	apply(t, c, "saturate=2")
	cli.Read(ctx, "a")
	cli.Write(ctx, "a", []byte("shed"))
	apply(t, c, "unsaturate=1,2")

	// A crashed site: reads that try it first time out and fall back to its
	// sibling; a write pinned to its level times out there and falls back
	// to the other level.
	apply(t, c, "crash=3")
	for i := 0; i < 3; i++ {
		_, err := cli.Read(ctx, keys[i%len(keys)])
		must(err)
	}
	_, err = cli.WriteAt(ctx, "b", []byte("crash"), 1)
	must(err)

	// A transaction whose deadline runs out between its reads and its
	// commit: every request of the commit fails before it is sent.
	txn = cli.NewTxn()
	_, err = txn.Read(ctx, "a")
	must(err)
	must(txn.Write("a", []byte("late")))
	late, cancel := context.WithDeadline(ctx, time.Now())
	defer cancel()
	if err := txn.Commit(late); err == nil {
		t.Fatal("a commit past its deadline succeeded")
	}

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE "), " ")
		name, _, _ = strings.Cut(name, "{")
		if !strings.HasPrefix(name, "arbor_client_") && !strings.HasPrefix(name, "arbor_rpc_") ||
			strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			continue
		}
		got = append(got, line)
	}
	if text := strings.Join(got, "\n"); text != pinnedClientMetrics {
		t.Errorf("arbor_client_* / arbor_rpc_* exposition changed:\n%s", text)
	}
	var stats []string
	for _, cl := range c.Clients() {
		stats = append(stats, fmt.Sprintf("%d %+v", cl.ID(), cl.Metrics()))
	}
	if text := strings.Join(stats, "\n"); text != pinnedClientStats {
		t.Errorf("clients' Metrics changed:\n%s", text)
	}
}

// TestContactsBookedByOperation holds Metrics' contact counters to the
// operations that sent the contacts, as §3.2 costs an operation: a read's
// contacts are read contacts; a write's version discovery and its prepares,
// a failed level's included, are write contacts, and so are a
// transaction's. A transaction's trace counts its discovery beside its
// prepares.
func TestContactsBookedByOperation(t *testing.T) {
	o := obs.NewObserver(64)
	c, _ := newObservedCluster(t, "1-2-2", o)
	cli := pinnedClient(t, c)
	ctx := context.Background()
	before := cli.Metrics()
	var reads, writes uint64
	for _, k := range []string{"a", "b", "a", "c"} {
		wr, err := cli.Write(ctx, k, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := cli.Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		writes += uint64(wr.Contacts)
		reads += uint64(rd.Contacts)
	}

	// A write pinned to a level with a crashed member falls back.
	apply(t, c, "crash=%d", c.Protocol().LevelSites(1)[0])
	wr, err := cli.WriteAt(ctx, "b", []byte("fallback"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Level == 1 {
		t.Fatal("a write pinned to a level with a crashed member committed there")
	}
	writes += uint64(wr.Contacts)

	// A two-key transaction discovers both keys' versions.
	txn := cli.NewTxn()
	for _, k := range []string{"x", "y"} {
		if err := txn.Write(k, []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tr := o.Traces.Last(1)[0]
	if tr.Op != "txn" {
		t.Fatalf("last trace is a %s, want the txn", tr.Op)
	}
	var discovery, prepares int
	for _, at := range tr.Attempts {
		for _, ct := range at.Contacts {
			switch ct.Phase {
			case "version":
				discovery++
			case "prepare":
				prepares++
			}
		}
	}
	if discovery == 0 || tr.Contacts != discovery+prepares {
		t.Errorf("txn trace counts %d contacts, it sent %d discovery and %d prepares", tr.Contacts, discovery, prepares)
	}
	writes += uint64(tr.Contacts)

	after := cli.Metrics()
	if got := after.ReadContacts - before.ReadContacts; got != reads {
		t.Errorf("ReadContacts grew by %d, the reads sent %d", got, reads)
	}
	if got := after.WriteContacts - before.WriteContacts; got != writes {
		t.Errorf("WriteContacts grew by %d, the writes and the txn sent %d", got, writes)
	}
}

const pinnedClientStats = `-1 {Reads:16 ReadFailures:1 Writes:5 WriteFailures:2 ReadContacts:37 WriteContacts:27 ReadRefetches:0}`

const pinnedClientMetrics = `# HELP arbor_client_read_contacts_total Replica contacts sent by the reads of the cluster's clients, failed levels included.
# TYPE arbor_client_read_contacts_total counter
arbor_client_read_contacts_total 37
# HELP arbor_client_write_contacts_total Replica contacts sent by the writes and transactions of the cluster's clients (version discovery and prepares), failed levels included.
# TYPE arbor_client_write_contacts_total counter
arbor_client_write_contacts_total 27
# HELP arbor_client_op_duration_seconds End-to-end client operation latency, including level fallbacks and retries.
# TYPE arbor_client_op_duration_seconds histogram
arbor_client_op_duration_seconds_count{op="read"} 17
arbor_client_op_duration_seconds_count{op="txn"} 2
arbor_client_op_duration_seconds_count{op="write"} 5
# HELP arbor_client_ops_total Client operations completed, by operation and outcome.
# TYPE arbor_client_ops_total counter
arbor_client_ops_total{op="read",outcome="not_found"} 1
arbor_client_ops_total{op="read",outcome="ok"} 15
arbor_client_ops_total{op="read",outcome="unavailable"} 1
arbor_client_ops_total{op="txn",outcome="conflict"} 1
arbor_client_ops_total{op="txn",outcome="ok"} 1
arbor_client_ops_total{op="write",outcome="in_doubt"} 0
arbor_client_ops_total{op="write",outcome="ok"} 4
arbor_client_ops_total{op="write",outcome="unavailable"} 1
# HELP arbor_client_fallbacks_total Quorum fallbacks taken: site = another replica of the same level after a failure (a fallback to another physical level is a level retry, arbor_client_retries_total).
# TYPE arbor_client_fallbacks_total counter
arbor_client_fallbacks_total{kind="site"} 4
# HELP arbor_client_hedges_total Hedged backup probes: launched = a backup probe started because the primary was overdue, win = a level was satisfied by a hedge probe's response.
# TYPE arbor_client_hedges_total counter
arbor_client_hedges_total{event="launched"} 0
arbor_client_hedges_total{event="win"} 0
# HELP arbor_client_read_refetches_total Reads repeated without a floor because every level answered older than the floor sent: a floor-table entry shared by two keys, or a read older than one this client already returned.
# TYPE arbor_client_read_refetches_total counter
arbor_client_read_refetches_total 0
# HELP arbor_client_retries_total Backed-off retry attempts, by kind: level = a next-level fallback after a failed quorum attempt.
# TYPE arbor_client_retries_total counter
arbor_client_retries_total{kind="level"} 1
# HELP arbor_rpc_call_duration_seconds Round-trip latency of replica calls, including timed-out calls.
# TYPE arbor_rpc_call_duration_seconds histogram
arbor_rpc_call_duration_seconds_count 76
# HELP arbor_rpc_calls_total Replica calls issued (each is one request message awaiting a reply).
# TYPE arbor_rpc_calls_total counter
arbor_rpc_calls_total 76
# HELP arbor_rpc_timeouts_total Replica calls whose reply deadline expired (failure-detector hits).
# TYPE arbor_rpc_timeouts_total counter
arbor_rpc_timeouts_total 2
# HELP arbor_rpc_sends_total Fire-and-forget payloads sent without awaiting a reply: one-way aborts of a failed prepare.
# TYPE arbor_rpc_sends_total counter
arbor_rpc_sends_total 2
# HELP arbor_rpc_overloaded_total Calls answered by a replica's admission gate with a load-shed reply.
# TYPE arbor_rpc_overloaded_total counter
arbor_rpc_overloaded_total 5
# HELP arbor_rpc_deadline_skips_total Calls failed locally because the caller's deadline budget was already spent.
# TYPE arbor_rpc_deadline_skips_total counter
arbor_rpc_deadline_skips_total 2`
