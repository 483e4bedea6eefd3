// Reconfigure: live adaptation to a workload shift. A cluster starts in a
// read-optimized single-level shape, the workload turns write-heavy, and
// the operator reshapes the SAME replicas into a write-friendly multi-level
// tree — the paper's "no need to implement a new protocol whenever the
// frequencies of read and write operations change".
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
	const n = 16
	readShape, err := arbor.MostlyRead(n) // 1-16
	if err != nil {
		return err
	}
	c, err := arbor.NewCluster(readShape, arbor.ClusterConfig{Seed: 3})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	fmt.Printf("phase 1 — read-heavy service on %s\n", c.Tree().Spec())
	a := arbor.Analyze(c.Tree())
	fmt.Printf("  read cost %d, write cost %.0f (fine while writes are rare)\n",
		a.ReadCost, a.WriteCostAvg)
	for i := 0; i < 4; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("user-%d", i), []byte("profile")); err != nil {
			return err
		}
	}
	rd, err := cli.Read(ctx, "user-0")
	if err != nil {
		return err
	}
	fmt.Printf("  read user-0 → %q touching %d replica(s)\n", rd.Value, rd.Contacts)

	// The workload turns write-heavy: ask the advisor for a better shape
	// and shift to it without stopping the cluster.
	adv, err := arbor.Advise(n, 0.9, 0.2 /* 20% reads */, arbor.MinimizeCost)
	if err != nil {
		return err
	}
	fmt.Printf("\nphase 2 — workload now 80%% writes; advisor recommends %s\n", adv.Tree.Spec())
	if err := c.Reconfigure(adv.Tree); err != nil {
		return err
	}
	a = arbor.Analyze(c.Tree())
	fmt.Printf("  after reshaping: read cost %d, write cost %.1f, write load %.3f\n",
		a.ReadCost, a.WriteCostAvg, a.WriteLoad)

	// Old data is still readable through the new quorum shapes…
	rd, err = cli.Read(ctx, "user-0")
	if err != nil {
		return err
	}
	fmt.Printf("  pre-reshape data intact: user-0 → %q\n", rd.Value)

	// …and writes now touch far fewer replicas.
	wr, err := cli.Write(ctx, "user-0", []byte("profile-v2"))
	if err != nil {
		return err
	}
	fmt.Printf("  new write touched %d replicas (was %d in the old shape)\n",
		wr.Contacts, 1+n)
	rd, err = cli.Read(ctx, "user-0")
	if err != nil {
		return err
	}
	fmt.Printf("  read-your-write: %q\n", rd.Value)
	return nil
}
