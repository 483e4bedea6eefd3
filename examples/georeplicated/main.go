// Georeplicated: the tree's physical levels mapped onto availability
// zones. With per-link WAN latencies injected, the example shows what the
// protocol's quorum shapes mean geographically: a read touches one replica
// per zone (paying the slowest zone's round trip once, in parallel), while
// a write touches every replica of a single zone — so writes can stay
// zone-local and fast while reads see a bounded WAN cost.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"arbor"
	"arbor/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three zones of growing size = three physical levels: 1-2-3-4.
	t, err := arbor.NewTree(2, 3, 4)
	if err != nil {
		return err
	}

	// Zone plan: level 0 (sites 1-2) is the client's local zone; level 1
	// (sites 3-5) is 15ms away; level 2 (sites 6-9) is 35ms away.
	zoneDelay := func(site transport.Addr) time.Duration {
		switch {
		case site <= 0: // clients are local
			return 0
		case site <= 2:
			return 0
		case site <= 5:
			return 15 * time.Millisecond
		default:
			return 35 * time.Millisecond
		}
	}
	link := func(from, to transport.Addr) time.Duration {
		// One-way delay to the farther endpoint's zone.
		d := zoneDelay(from)
		if dd := zoneDelay(to); dd > d {
			d = dd
		}
		return d / 2 // half RTT per direction
	}

	c, err := arbor.NewCluster(t, arbor.ClusterConfig{
		Seed:          9,
		Net:           transport.NetConfig{LinkLatency: link},
		ClientTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	fmt.Printf("zones: local={1,2}  +15ms={3,4,5}  +35ms={6..9}  (tree %s)\n\n", t.Spec())

	if _, err := cli.Write(ctx, "profile", []byte("v1")); err != nil {
		return err
	}

	// Reads: one replica per zone, queried in parallel → ~one far-zone RTT.
	start := time.Now()
	rd, err := cli.Read(ctx, "profile")
	if err != nil {
		return err
	}
	fmt.Printf("read  touched %d replicas (one per zone) in %v\n",
		rd.Contacts, time.Since(start).Round(time.Millisecond))

	// Writes: version discovery (parallel, ~far RTT) + 2PC on ONE zone.
	// WriteAt pins the quorum to a chosen zone.
	start = time.Now()
	if _, err := cli.WriteAt(ctx, "profile", []byte("v2"), 0 /* local zone */); err != nil {
		return err
	}
	fmt.Printf("write pinned to the local zone:  %v\n", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	if _, err := cli.WriteAt(ctx, "profile", []byte("v3"), 2 /* far zone */); err != nil {
		return err
	}
	fmt.Printf("write pinned to the far zone:    %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("\nthe write quorum is a single zone: pinning hot keys' writes to the")
	fmt.Println("local zone (or reshaping the tree) trades WAN hops for zone capacity;")
	fmt.Println("the uniform strategy spreads them for the paper's optimal 1/|K_phy| load.")
	return nil
}
