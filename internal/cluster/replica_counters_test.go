package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"arbor/internal/obs"
)

// TestReplicaCountersPinned drives a scripted, seeded run — plain traffic,
// a saturated level shedding, a crashed site catching up — and holds every
// arbor_replica_* family of /metrics (names, help, labels, values) and
// every Replica.Stats() to literals captured before the replica kept one
// counter per fact: the series and the Stats fields are now the same
// counters, and must still say what the two separate sets said. Only the
// lock-wait histogram's buckets and sum, which are timings, are left out.
// Since reads carry a floor, a read is counted under type="read" when it
// shipped the value and under "read_ts_only" when it did not; Stats.Reads is
// their sum, so the totals are the ones captured then. It runs on
// newPinnedCluster, so the counts cannot move with the machine's load.
func TestReplicaCountersPinned(t *testing.T) {
	o := obs.NewObserver(16)
	c, tr := newPinnedCluster(t, "1-2-2", o)
	cli := pinnedClient(t, c)
	ctx := context.Background()
	keys := []string{"a", "b", "c"}
	for i := 0; i < 12; i++ {
		k := keys[i%len(keys)]
		if i%3 == 0 {
			if _, err := cli.Write(ctx, k, []byte(fmt.Sprint("v", i))); err != nil {
				t.Fatal(err)
			}
		} else {
			cli.Read(ctx, k)
		}
	}
	// Saturate one level: its reads are shed, the others serve.
	apply(t, c, "saturate=1,2")
	for i := 0; i < 4; i++ {
		cli.Read(ctx, keys[i%len(keys)])
	}
	cli.Write(ctx, "a", []byte("shed"))
	apply(t, c, "unsaturate=1,2")
	// A crashed site misses a write and catches up.
	apply(t, c, "crash=3")
	cli.Write(ctx, "b", []byte("missed"))
	apply(t, c, "recover=3")
	if err := c.AwaitSync(ctx); err != nil {
		t.Fatal(err)
	}
	cli.Read(ctx, "b")

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.Contains(line, "arbor_replica_") ||
			strings.HasPrefix(line, "arbor_replica_lock_wait_seconds_bucket") ||
			strings.HasPrefix(line, "arbor_replica_lock_wait_seconds_sum") {
			continue
		}
		got = append(got, line)
	}
	if text := strings.Join(got, "\n"); text != pinnedReplicaMetrics {
		t.Errorf("arbor_replica_* exposition changed:\n%s", text)
	}
	for i, s := range tr.Sites() {
		if got := fmt.Sprintf("%+v", c.Replica(s).Stats()); got != pinnedReplicaStats[i] {
			t.Errorf("site %d Stats = %s\nwant %s", s, got, pinnedReplicaStats[i])
		}
	}
}

var pinnedReplicaStats = []string{
	"{Reads:3 ReadsTSOnly:0 Versions:3 VersionsForWrite:3 Prepares:4 Commits:4 Aborts:0 Pings:0 SyncServes:2 Refusals:0 Sheds:5 ReplyErrors:0 JournalErrors:0 Messages:21}",
	"{Reads:6 ReadsTSOnly:0 Versions:2 VersionsForWrite:2 Prepares:4 Commits:4 Aborts:0 Pings:0 SyncServes:0 Refusals:0 Sheds:5 ReplyErrors:0 JournalErrors:0 Messages:21}",
	"{Reads:5 ReadsTSOnly:1 Versions:3 VersionsForWrite:3 Prepares:1 Commits:1 Aborts:0 Pings:0 SyncServes:0 Refusals:0 Sheds:0 ReplyErrors:0 JournalErrors:0 Messages:12}",
	"{Reads:8 ReadsTSOnly:1 Versions:3 VersionsForWrite:3 Prepares:2 Commits:1 Aborts:1 Pings:0 SyncServes:0 Refusals:0 Sheds:0 ReplyErrors:0 JournalErrors:0 Messages:15}",
}

const pinnedReplicaMetrics = `# HELP arbor_replica_serves_total Requests served by a replica, by site and message type.
# TYPE arbor_replica_serves_total counter
arbor_replica_serves_total{site="1",type="abort"} 0
arbor_replica_serves_total{site="1",type="commit"} 4
arbor_replica_serves_total{site="1",type="ping"} 0
arbor_replica_serves_total{site="1",type="prepare"} 4
arbor_replica_serves_total{site="1",type="read"} 3
arbor_replica_serves_total{site="1",type="read_ts_only"} 0
arbor_replica_serves_total{site="1",type="sync_digest"} 1
arbor_replica_serves_total{site="1",type="sync_fetch"} 1
arbor_replica_serves_total{site="1",type="version_read"} 0
arbor_replica_serves_total{site="1",type="version_write"} 3
arbor_replica_serves_total{site="2",type="abort"} 0
arbor_replica_serves_total{site="2",type="commit"} 4
arbor_replica_serves_total{site="2",type="ping"} 0
arbor_replica_serves_total{site="2",type="prepare"} 4
arbor_replica_serves_total{site="2",type="read"} 6
arbor_replica_serves_total{site="2",type="read_ts_only"} 0
arbor_replica_serves_total{site="2",type="sync_digest"} 0
arbor_replica_serves_total{site="2",type="sync_fetch"} 0
arbor_replica_serves_total{site="2",type="version_read"} 0
arbor_replica_serves_total{site="2",type="version_write"} 2
arbor_replica_serves_total{site="3",type="abort"} 0
arbor_replica_serves_total{site="3",type="commit"} 1
arbor_replica_serves_total{site="3",type="ping"} 0
arbor_replica_serves_total{site="3",type="prepare"} 1
arbor_replica_serves_total{site="3",type="read"} 4
arbor_replica_serves_total{site="3",type="read_ts_only"} 1
arbor_replica_serves_total{site="3",type="sync_digest"} 0
arbor_replica_serves_total{site="3",type="sync_fetch"} 0
arbor_replica_serves_total{site="3",type="version_read"} 0
arbor_replica_serves_total{site="3",type="version_write"} 3
arbor_replica_serves_total{site="4",type="abort"} 1
arbor_replica_serves_total{site="4",type="commit"} 1
arbor_replica_serves_total{site="4",type="ping"} 0
arbor_replica_serves_total{site="4",type="prepare"} 2
arbor_replica_serves_total{site="4",type="read"} 7
arbor_replica_serves_total{site="4",type="read_ts_only"} 1
arbor_replica_serves_total{site="4",type="sync_digest"} 0
arbor_replica_serves_total{site="4",type="sync_fetch"} 0
arbor_replica_serves_total{site="4",type="version_read"} 0
arbor_replica_serves_total{site="4",type="version_write"} 3
# HELP arbor_replica_catchup_refusals_total Read/version probes refused while the replica was catching up, by site.
# TYPE arbor_replica_catchup_refusals_total counter
arbor_replica_catchup_refusals_total{site="1"} 0
arbor_replica_catchup_refusals_total{site="2"} 0
arbor_replica_catchup_refusals_total{site="3"} 0
arbor_replica_catchup_refusals_total{site="4"} 0
# HELP arbor_replica_sync_keys_pulled_total Keys whose value the anti-entropy syncer pulled from a live peer, by site.
# TYPE arbor_replica_sync_keys_pulled_total counter
arbor_replica_sync_keys_pulled_total{site="1"} 0
arbor_replica_sync_keys_pulled_total{site="2"} 0
arbor_replica_sync_keys_pulled_total{site="3"} 2
arbor_replica_sync_keys_pulled_total{site="4"} 0
# HELP arbor_replica_sync_batches_total Digest pages the anti-entropy syncer processed, by site.
# TYPE arbor_replica_sync_batches_total counter
arbor_replica_sync_batches_total{site="1"} 0
arbor_replica_sync_batches_total{site="2"} 0
arbor_replica_sync_batches_total{site="3"} 1
arbor_replica_sync_batches_total{site="4"} 0
# HELP arbor_replica_sync_retries_total Anti-entropy rounds retried after every candidate source failed, by site.
# TYPE arbor_replica_sync_retries_total counter
arbor_replica_sync_retries_total{site="1"} 0
arbor_replica_sync_retries_total{site="2"} 0
arbor_replica_sync_retries_total{site="3"} 0
arbor_replica_sync_retries_total{site="4"} 0
# HELP arbor_replica_sync_completions_total Anti-entropy passes completed (replica converged to its sources), by site.
# TYPE arbor_replica_sync_completions_total counter
arbor_replica_sync_completions_total{site="1"} 0
arbor_replica_sync_completions_total{site="2"} 0
arbor_replica_sync_completions_total{site="3"} 1
arbor_replica_sync_completions_total{site="4"} 0
# HELP arbor_replica_lock_refusals_total Prepare requests refused, by site and reason (locked = lock contention, stale = superseded timestamp).
# TYPE arbor_replica_lock_refusals_total counter
# HELP arbor_replica_lock_wait_seconds Time prepare handlers spent acquiring the replica's lock-table mutex.
# TYPE arbor_replica_lock_wait_seconds histogram
arbor_replica_lock_wait_seconds_count 11
# HELP arbor_replica_sheds_total Gated requests answered with a typed overload reply, by site and reason (refused = saturated or draining, busy = over the in-flight limit).
# TYPE arbor_replica_sheds_total counter
arbor_replica_sheds_total{site="1",reason="refused"} 5
arbor_replica_sheds_total{site="2",reason="refused"} 5
# HELP arbor_replica_reply_errors_total Replies the transport refused to send (requester's connection broken or endpoint closed), by site.
# TYPE arbor_replica_reply_errors_total counter
arbor_replica_reply_errors_total{site="1"} 0
arbor_replica_reply_errors_total{site="2"} 0
arbor_replica_reply_errors_total{site="3"} 0
arbor_replica_reply_errors_total{site="4"} 0
# HELP arbor_replica_journal_errors_total Applied writes the write-ahead journal failed to append (kept in memory until the replica crashes, then lost), by site.
# TYPE arbor_replica_journal_errors_total counter
arbor_replica_journal_errors_total{site="1"} 0
arbor_replica_journal_errors_total{site="2"} 0
arbor_replica_journal_errors_total{site="3"} 0
arbor_replica_journal_errors_total{site="4"} 0
# HELP arbor_replica_health Replica health lifecycle state per site: 0=down, 1=catching-up, 2=live.
# TYPE arbor_replica_health gauge
arbor_replica_health{site="1"} 2
arbor_replica_health{site="2"} 2
arbor_replica_health{site="3"} 2
arbor_replica_health{site="4"} 2
# HELP arbor_replica_sync_active 1 while the site runs an anti-entropy pass, else 0.
# TYPE arbor_replica_sync_active gauge
arbor_replica_sync_active{site="1"} 0
arbor_replica_sync_active{site="2"} 0
arbor_replica_sync_active{site="3"} 0
arbor_replica_sync_active{site="4"} 0`
