package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// TestRetryBudgetBoundsRetryStorm pins the retry-storm regression: with one
// leaf replica saturated, every write pinned to the leaf level sheds and
// falls back. An unbudgeted client retries every write's fallback; a
// budgeted one spends its burst and then reports honest unavailability, so
// its total wire traffic is strictly smaller and the denial is visible in
// its metrics. The shed itself surfaces as a typed, matchable error.
func TestRetryBudgetBoundsRetryStorm(t *testing.T) {
	const ops = 20
	run := func(opts ...client.Option) (sent uint64, m client.Metrics, lastErr error) {
		c := newCluster(t, "1-3-5")
		cli, err := c.NewClient(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Saturate(8, true); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < ops; i++ {
			// Level 1 contains the saturated site 8, so every write sheds
			// there and needs a fallback to succeed.
			_, err := cli.WriteAt(ctx, fmt.Sprintf("k%d", i), []byte("v"), 1)
			if err != nil {
				lastErr = err
			}
		}
		return c.NetworkStats().Sent, cli.Metrics(), lastErr
	}

	unbudgetedSent, um, uerr := run()
	if uerr != nil {
		t.Fatalf("unbudgeted client failed a write: %v (fallback should rescue every one)", uerr)
	}
	if um.RetriesDenied != 0 {
		t.Fatalf("unbudgeted client denied %d retries", um.RetriesDenied)
	}

	budgetedSent, bm, berr := run(client.WithRetryBudget(0.05, 1))
	if bm.RetriesDenied < 10 {
		t.Errorf("RetriesDenied = %d, want >= 10 (one burst token, 0.05/op earn, %d overloaded writes)",
			bm.RetriesDenied, ops)
	}
	if berr == nil {
		t.Fatal("budgeted client never failed a write despite a dry bucket")
	}
	if !errors.Is(berr, client.ErrWriteUnavailable) || !errors.Is(berr, client.ErrOverloaded) {
		t.Errorf("budget-denied write error = %v, want ErrWriteUnavailable wrapping ErrOverloaded", berr)
	}
	if budgetedSent >= unbudgetedSent {
		t.Errorf("budgeted client sent %d messages, unbudgeted %d: the retry budget did not bound the storm",
			budgetedSent, unbudgetedSent)
	}
	t.Logf("unbudgeted: %d wire messages; budgeted: %d wire messages, %d retry spent / %d denied",
		unbudgetedSent, budgetedSent, bm.RetriesSpent, bm.RetriesDenied)
}

// TestDrainPreservesAckedWrites rolls a graceful drain across every site,
// one at a time, then restarts the whole cluster — and requires every
// acknowledged write to read back exactly. Drain hands off through the
// normal lifecycle (finish in-flight 2PC, go down, recover), so it must
// never cost a byte of acknowledged data.
func TestDrainPreservesAckedWrites(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	const keys = 8
	for i := 0; i < keys; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write k%d: %v", i, err)
		}
	}
	for _, site := range c.Tree().Sites() {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := c.Drain(dctx, site)
		cancel()
		if err != nil {
			t.Fatalf("drain site %d: %v", site, err)
		}
		if got := c.Replica(site).Health(); got.String() != "down" {
			t.Fatalf("site %d health after drain = %v, want down", site, got)
		}
		if err := c.Recover(site); err != nil {
			t.Fatalf("recover site %d: %v", site, err)
		}
	}
	if err := c.ApplyEvent(Event{Restart: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil || string(rd.Value) != fmt.Sprintf("v%d", i) {
			t.Errorf("read k%d after drain cycle = %q, %v; want v%d", i, rd.Value, err, i)
		}
	}
}

// TestSlowSiteDelaysGatedWorkNotCommits pins what slowsite= means: a slowed
// site answers its gated requests no sooner than the delay, acknowledges a
// commit well inside it, and the cluster's reads and writes still succeed.
func TestSlowSiteDelaysGatedWorkNotCommits(t *testing.T) {
	const delay = 50 * time.Millisecond
	const slow = tree.SiteID(2)
	c := newCluster(t, "1-3-5")
	if err := c.SlowSite(slow, delay); err != nil {
		t.Fatal(err)
	}
	ep, err := c.sim.Register(-100)
	if err != nil {
		t.Fatal(err)
	}
	call := func(payload any) (any, time.Duration) {
		t.Helper()
		start := time.Now()
		if err := ep.Send(transport.Addr(slow), payload); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-ep.Recv():
			return m.Payload, time.Since(start)
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to %T", payload)
			return nil, 0
		}
	}
	ts := replica.Timestamp{Version: 1, Site: -100}
	for _, req := range []any{
		replica.ReadReq{ReqID: 1, Key: "probe"},
		replica.VersionReq{ReqID: 2, Key: "probe"},
		replica.PrepareReq{ReqID: 3, TxID: 3, Key: "probe", TS: ts},
	} {
		if resp, took := call(req); took < delay {
			t.Errorf("%T answered in %v (%T), before the %v delay", req, took, resp, delay)
		}
	}
	resp, took := call(replica.CommitReq{ReqID: 4, TxID: 3, Key: "probe", Value: []byte("v"), TS: ts})
	if ack, ok := resp.(replica.CommitResp); !ok || !ack.OK || took >= delay/2 {
		t.Errorf("commit answered %+v in %v, want an acknowledgement well inside %v", resp, took, delay)
	}

	cli := newClient(t, c)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		key, value := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if _, err := cli.Write(ctx, key, []byte(value)); err != nil {
			t.Fatalf("write %s with site %d slowed: %v", key, slow, err)
		}
		if rd, err := cli.Read(ctx, key); err != nil || string(rd.Value) != value {
			t.Fatalf("read %s with site %d slowed = %q, %v; want %s", key, slow, rd.Value, err, value)
		}
	}
}
