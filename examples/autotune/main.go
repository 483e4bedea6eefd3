// Autotune: closed-loop adaptation. The cluster starts read-optimized, the
// workload flips to write-heavy, and the adaptation controller watching the
// live operation mix reshapes the tree on its own — no operator involved.
// Every decision it takes (or declines to take) lands in its journal, which
// the example prints at the end.
package main

import (
	"context"
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
	t, err := arbor.MostlyRead(16)
	if err != nil {
		return err
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 5})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	// The controller is driven by explicit Step calls here, so the example
	// is deterministic; production code would start ctl.Run(ctx) instead.
	cfg := arbor.DefaultAdaptConfig()
	cfg.Interval, cfg.MinLevelDelta, cfg.Cooldown, cfg.Enabled = 50*time.Millisecond, 2, 0, true
	ctl, err := arbor.NewController(c, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("start: %s (read-optimized)\n", c.Tree().Spec())

	// Phase 1: the read-heavy workload the shape was chosen for. The
	// controller watches and holds — the advised tree matches the current
	// one, so every decision is a "shape fits" hold.
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		return err
	}
	for tick := 0; tick < 8; tick++ {
		for i := 0; i < 30; i++ {
			if _, err := cli.Read(ctx, "k"); err != nil {
				return err
			}
		}
		ctl.Step()
	}
	fmt.Printf("after read-heavy phase: %s (%d reconfigurations — none expected)\n",
		c.Tree().Spec(), ctl.Reconfigurations())

	// Phase 2: the workload flips to writes; the window drains of reads,
	// drift accumulates past the hysteresis threshold, and the controller
	// migrates to a write-optimized shape.
	writes := 0
	for tick := 0; tick < 40 && ctl.Reconfigurations() == 0; tick++ {
		for i := 0; i < 30; i++ {
			if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i%4), []byte("v")); err != nil {
				return err
			}
			writes++
		}
		ctl.Step()
	}
	fmt.Printf("after write-heavy phase: %s (%d reconfiguration(s), %d writes issued)\n",
		c.Tree().Spec(), ctl.Reconfigurations(), writes)

	// Everything written across both shapes is still there.
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		return err
	}
	fmt.Printf("original key intact: %q\n", rd.Value)

	// The decision journal explains the whole run.
	fmt.Println("journal (last 3):")
	for _, d := range ctl.Journal(3) {
		fmt.Printf("  %s\n", d)
	}
	return nil
}
