// Tcpcluster: the identical protocol stack over real loopback TCP sockets
// with the binary wire codec — the cluster arbord runs, with every message
// crossing a socket through the same framing and read loops a deployment
// uses.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/tree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	t, err := tree.ParseSpec("1-2-4")
	if err != nil {
		return err
	}
	// One TCP listener per replica, all on loopback ephemeral ports.
	c, err := cluster.New(t, cluster.Config{TCP: true, ClientTimeout: 500 * time.Millisecond})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("started %d replicas on TCP loopback (%s)\n", t.N(), t.Spec())

	// The client is dial-only: it needs no listener, replies come back over
	// the multiplexed connections it opens.
	cli, err := c.NewClient()
	if err != nil {
		return err
	}

	ctx := context.Background()
	start := time.Now()
	const ops = 50
	for i := 0; i < ops; i++ {
		if _, err := cli.Write(ctx, "counter", []byte(fmt.Sprintf("%d", i))); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
	}
	rd, err := cli.Read(ctx, "counter")
	if err != nil {
		return err
	}
	fmt.Printf("%d quorum writes + 1 read over TCP in %v\n", ops, time.Since(start).Round(time.Millisecond))
	fmt.Printf("counter = %s (version %s), read touched %d replicas\n", rd.Value, rd.TS, rd.Contacts)

	// Crash a replica: the quorum logic behaves identically over TCP.
	if err := c.ApplyEvent(ctx, cluster.Event{Crash: t.Sites()[:1]}); err != nil {
		return err
	}
	wr, err := cli.Write(ctx, "counter", []byte("final"))
	if err != nil {
		return err
	}
	fmt.Printf("after crashing site %d, write re-routed to level %d\n", t.Sites()[0], wr.Level)
	return nil
}
