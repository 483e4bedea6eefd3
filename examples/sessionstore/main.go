// Sessionstore: a realistic mixed workload — a web session store with 80%
// reads — run against two configurations of the same protocol, comparing
// measured throughput, per-operation cost, and the busiest replica's share
// (the system load the paper optimizes). The balanced Algorithm 1 tree
// spreads write load ~√n-fold better than the ROWA-like single-level tree
// while keeping reads cheap.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"arbor"
)

const (
	replicas     = 64
	operations   = 3000
	readFraction = 0.8
	sessions     = 50
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mostlyRead, err := arbor.MostlyRead(replicas)
	if err != nil {
		return err
	}
	balanced, err := arbor.Algorithm1(replicas)
	if err != nil {
		return err
	}
	fmt.Printf("session store: %d replicas, %d ops, %.0f%% reads\n\n",
		replicas, operations, readFraction*100)

	for _, cfg := range []struct {
		name string
		tree *arbor.Tree
	}{
		{name: "MOSTLY-READ (single level)", tree: mostlyRead},
		{name: "ARBITRARY (Algorithm 1)", tree: balanced},
	} {
		if err := runConfig(cfg.name, cfg.tree); err != nil {
			return err
		}
	}
	return nil
}

func runConfig(name string, t *arbor.Tree) error {
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 42})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	var readContacts, writeContacts, reads, writes int
	start := time.Now()
	for i := 0; i < operations; i++ {
		key := fmt.Sprintf("session-%d", rng.Intn(sessions))
		if rng.Float64() < readFraction {
			rd, err := cli.Read(ctx, key)
			if err != nil && !errors.Is(err, arbor.ErrNotFound) {
				return fmt.Errorf("%s: read: %w", name, err)
			}
			readContacts += rd.Contacts
			reads++
			continue
		}
		wr, err := cli.Write(ctx, key, []byte("cookie-data"))
		if err != nil {
			return fmt.Errorf("%s: write: %w", name, err)
		}
		writeContacts += wr.Contacts
		writes++
	}
	elapsed := time.Since(start)

	a := arbor.Analyze(t)
	fmt.Printf("%s — %s\n", name, t)
	fmt.Printf("  throughput: %.0f ops/s (%d reads, %d writes in %v)\n",
		float64(operations)/elapsed.Seconds(), reads, writes, elapsed.Round(time.Millisecond))
	fmt.Printf("  avg read contacts:  %.2f (theory %d)\n",
		float64(readContacts)/float64(reads), a.ReadCost)
	fmt.Printf("  avg write contacts: %.2f (theory %d + %.1f for version discovery + quorum)\n",
		float64(writeContacts)/float64(writes), a.ReadCost, a.WriteCostAvg)
	fmt.Printf("  optimal write load: %.4f — busiest replica sees this fraction of writes\n\n",
		a.WriteLoad)
	return nil
}
