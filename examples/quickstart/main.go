// Quickstart: build the paper's example tree, inspect the protocol's
// predicted metrics, then run real quorum reads and writes against a
// simulated cluster.
package main

import (
	"context"
	"fmt"
	"log"

	"arbor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The paper's running example: a logical root over physical levels of
	// three and five replicas ("1-3-5", Figure 1 / §3.4).
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		return err
	}
	fmt.Println("tree:", t)

	// Closed-form protocol metrics (§3.2).
	a := arbor.Analyze(t)
	const p = 0.7
	fmt.Printf("read:  cost %d, optimal load %.3f, availability(%.1f) %.3f\n",
		a.ReadCost, a.ReadLoad, p, a.ReadAvailability(p))
	fmt.Printf("write: cost %.1f, optimal load %.3f, availability(%.1f) %.3f\n",
		a.WriteCostAvg, a.WriteLoad, p, a.WriteAvailability(p))

	// Spin up one goroutine per replica and run the protocol for real.
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		return err
	}
	defer c.Close()

	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	wr, err := cli.Write(ctx, "greeting", []byte("hello, quorums"))
	if err != nil {
		return err
	}
	fmt.Printf("write installed %s on physical level %d, touching %d replicas\n",
		wr.TS, wr.Level, wr.Contacts)

	rd, err := cli.Read(ctx, "greeting")
	if err != nil {
		return err
	}
	fmt.Printf("read returned %q (timestamp %s) touching %d replicas\n",
		rd.Value, rd.TS, rd.Contacts)
	return nil
}
