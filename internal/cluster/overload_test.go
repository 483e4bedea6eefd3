package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// TestSaturatedLevelWritesFallBack: with one leaf replica saturated, every
// write pinned to the leaf level sheds there and falls back to the other
// level, one backed-off level retry each, and every one succeeds.
func TestSaturatedLevelWritesFallBack(t *testing.T) {
	const ops = 20
	o := obs.NewObserver(0)
	c, _ := newObservedCluster(t, "1-3-5", o)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	apply(t, c, "saturate=8")
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		// Level 1 contains the saturated site 8, so every write sheds
		// there and needs a fallback to succeed.
		if wr, err := cli.WriteAt(ctx, fmt.Sprintf("k%d", i), []byte("v"), 1); err != nil || wr.Level != 0 {
			t.Fatalf("write %d: level %d, %v; want a fallback to level 0", i, wr.Level, err)
		}
	}
	if n := o.Registry.CounterVec("arbor_client_retries_total", "", "kind").With("level").Value(); n != ops {
		t.Errorf("level retries = %d, want %d", n, ops)
	}
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
		apply(t, c, "drain=%d", site)
		if got := c.Replica(site).Health(); got.String() != "down" {
			t.Fatalf("site %d health after drain = %v, want down", site, got)
		}
		apply(t, c, "recover=%d", site)
	}
	if err := c.ApplyEvent(context.Background(), Event{Restart: true}); err != nil {
		t.Fatal(err)
	}
	awaitSync(t, c)
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
	apply(t, c, "slowsite=%d:%v", slow, delay)
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
