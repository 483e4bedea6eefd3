// Failover: demonstrates the protocol's availability behaviour under
// replica crashes — the property that motivated tree quorums in the first
// place. Writes survive any single crash by switching physical levels;
// reads survive as long as every level keeps one live replica; killing an
// entire level takes reads down until recovery, with no data loss.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"arbor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		return err
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 7, ClientTimeout: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	if _, err := cli.Write(ctx, "ledger", []byte("balance=100")); err != nil {
		return err
	}
	fmt.Println("initial write committed")

	// Crash a replica on the first physical level (sites 1–3). Level 0
	// can no longer form a write quorum, so writes fail over to level 1.
	fmt.Println("\n-- crashing site 1 (one member of physical level 0) --")
	if err := c.ApplyEvent(ctx, arbor.Event{Crash: []arbor.SiteID{1}}); err != nil {
		return err
	}
	wr, err := cli.Write(ctx, "ledger", []byte("balance=90"))
	if err != nil {
		return err
	}
	fmt.Printf("write still succeeds, re-routed to level %d\n", wr.Level)
	rd, err := cli.Read(ctx, "ledger")
	if err != nil {
		return err
	}
	fmt.Printf("read still succeeds: %q\n", rd.Value)

	// Crash ALL of level 0: reads need one replica from every level, so
	// they become unavailable; the data is safe.
	fmt.Println("\n-- crashing all of physical level 0 --")
	if err := c.ApplyEvent(ctx, arbor.Event{Crash: []arbor.SiteID{2, 3}}); err != nil {
		return err
	}
	if _, err := cli.Read(ctx, "ledger"); errors.Is(err, arbor.ErrReadUnavailable) {
		fmt.Println("reads unavailable, as the protocol predicts")
	} else {
		return fmt.Errorf("expected read unavailability, got %v", err)
	}

	// Recovery restores service with the last committed value intact.
	fmt.Println("\n-- recovering all replicas --")
	// Each replays its journal and catches up before it serves reads again.
	if err := c.ApplyEvent(ctx, arbor.Event{RecoverAll: true}); err != nil {
		return err
	}
	if err := c.AwaitSync(ctx); err != nil {
		return err
	}
	rd, err = cli.Read(ctx, "ledger")
	if err != nil {
		return err
	}
	fmt.Printf("read after recovery: %q (no data lost)\n", rd.Value)
	return nil
}
