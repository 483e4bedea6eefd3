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

// TestTCPClusterCostsMatchTheory runs a mixed workload over loopback TCP and
// holds every operation to §3.2's message count on 1-3-5: a read contacts
// one member per physical level (2), a write its version discovery (2) plus
// every member of the level it commits on (3 or 5). Hedging is off, so a
// slow machine cannot add a backup probe the paper does not price.
func TestTCPClusterCostsMatchTheory(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{TCP: true})
	cli, err := c.NewClient(client.WithHedging(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	proto := c.Protocol()
	var reads, writes int
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i%7)
		if i%3 == 0 {
			res, err := cli.Write(ctx, key, []byte(key))
			if err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
			if want := 2 + len(proto.LevelSites(res.Level)); res.Contacts != want {
				t.Errorf("op %d: write on level %d contacted %d sites, want %d", i, res.Level, res.Contacts, want)
			}
			writes++
			continue
		}
		res, err := cli.Read(ctx, key)
		if err != nil && !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("op %d: read: %v", i, err)
		}
		if err == nil && string(res.Value) != key {
			t.Errorf("op %d: read %q = %q", i, key, res.Value)
		}
		if res.Contacts != 2 {
			t.Errorf("op %d: read contacted %d sites, want 2", i, res.Contacts)
		}
		reads++
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("workload ran %d reads and %d writes", reads, writes)
	}
	st := c.NetworkStats()
	if st.TCP.FramesOut == 0 || st.TCP.FramesIn == 0 {
		t.Errorf("no frames counted: %+v", st.TCP)
	}
	if st.TCP.DecodeDrops != 0 || st.TCP.InboxDrops != 0 {
		t.Errorf("frames dropped: %+v", st.TCP)
	}
	if st.Stats != (transport.Stats{}) {
		t.Errorf("in-memory counters moved over TCP: %+v", st.Stats)
	}
}

// TestTCPClusterRoutesAroundCrash crashes a member of the small level over
// TCP: reads and writes go around it, and after recovery it serves again.
func TestTCPClusterRoutesAroundCrash(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{TCP: true, ClientTimeout: 50 * time.Millisecond})
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	apply(t, c, "crash=1")
	for i := 1; i <= 5; i++ {
		want := fmt.Sprintf("v%d", i)
		wr, err := cli.Write(ctx, "k", []byte(want))
		if err != nil {
			t.Fatalf("write %d with site 1 down: %v", i, err)
		}
		if wr.Level != 1 {
			t.Errorf("write %d landed on level %d, want 1 (level 0 has a dead member)", i, wr.Level)
		}
		rd, err := cli.Read(ctx, "k")
		if err != nil || string(rd.Value) != want {
			t.Fatalf("read %d with site 1 down = %q, %v; want %q", i, rd.Value, err, want)
		}
	}

	apply(t, c, "recover=1")
	// A fresh client has no memory of the outage, so its first writes draw
	// both levels; one on level 0 needs site 1's vote.
	fresh := newClient(t, c)
	before := c.Replica(1).Stats().Prepares
	for i := 0; i < 40 && c.Replica(1).Stats().Prepares == before; i++ {
		if _, err := fresh.Write(ctx, fmt.Sprintf("after%d", i), []byte("v")); err != nil {
			t.Fatalf("write %d after recovery: %v", i, err)
		}
	}
	if c.Replica(1).Stats().Prepares == before {
		t.Error("site 1 voted in no write after recovery")
	}
}

// TestTCPClusterRefusesSimulatedFaults: faults that only the in-memory
// network can inject are errors over TCP, not silent no-ops, while a zero Net
// — zero latency, zero loss, the default uniform jitter shape — is accepted.
func TestTCPClusterRefusesSimulatedFaults(t *testing.T) {
	tr, err := tree.ParseSpec("1-2-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		net    transport.NetConfig
		refuse bool
	}{
		{"latency", transport.NetConfig{Latency: time.Millisecond}, true},
		{"jitter", transport.NetConfig{Jitter: time.Millisecond}, true},
		{"jitter shape", transport.NetConfig{JitterDist: transport.JitterPareto}, true},
		{"link latency", transport.NetConfig{LinkLatency: func(from, to transport.Addr) time.Duration { return 0 }}, true},
		{"drop", transport.NetConfig{DropProb: 0.1}, true},
		{"zero Net", transport.NetConfig{}, false},
	} {
		c, err := New(tr, Config{TCP: true, Net: tc.net})
		if err == nil {
			c.Close()
		}
		if refused := err != nil; refused != tc.refuse {
			t.Errorf("%s: New over TCP refused = %v (%v), want %v", tc.name, refused, err, tc.refuse)
		}
	}

	c := newConfiguredCluster(t, "1-2-2", Config{TCP: true})
	for _, do := range []string{"partition=1,2", "heal"} {
		if err := c.ApplyEvent(context.Background(), event(t, do)); err == nil {
			t.Errorf("%s applied over TCP", do)
		}
	}
}
