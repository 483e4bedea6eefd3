package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/tree"
)

// TestHedgedProbesNoGoroutineLeak drives a warm hedging client against a
// cluster with one crashed site per level — every read launches and then
// cancels loser probes — and checks the goroutine count returns to baseline
// after Close. A leaked prober (or a reply-channel write after return)
// would hold the count up.
func TestHedgedProbesNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, Config{Seed: 1, ClientTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient(client.WithHedgeDelay(2 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // warm every level's latency estimate
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	proto := c.Protocol()
	for u := 0; u < proto.NumPhysicalLevels(); u++ {
		apply(t, c, "crash=%d", proto.LevelSites(u)[0])
	}
	for i := 0; i < 30; i++ {
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatalf("read %d during outage: %v", i, err)
		}
	}
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, after close %d", baseline, runtime.NumGoroutine())
}

// TestEngineDeterministicUnderSeed runs the same workload against two
// identically seeded clusters with hedging enabled and requires identical
// write-level and read-contact sequences: the engine's rng-driven choices
// (level rotation, shuffles, exploration draws) must stay reproducible.
// The hedge delay is set high so the comparison covers the engine's
// decision stream, not wall-clock race outcomes.
func TestEngineDeterministicUnderSeed(t *testing.T) {
	run := func() []string {
		tr, err := tree.ParseSpec("1-2-2")
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(tr, Config{Seed: 9, ClientTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cli, err := c.NewClient(client.WithHedgeDelay(50 * time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var log []string
		for i := 0; i < 20; i++ {
			wr, err := cli.Write(ctx, fmt.Sprintf("k%d", i%3), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("w:%d", wr.Level))
		}
		for i := 0; i < 30; i++ {
			rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i%3))
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("r:%d:%s", rd.Contacts, rd.Value))
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverges: %q vs %q\nfirst:  %v\nsecond: %v", i, a[i], b[i], a, b)
		}
	}
}
