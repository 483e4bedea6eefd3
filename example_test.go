package arbor_test

import (
	"context"
	"fmt"
	"log"

	"arbor"
)

// ExampleParseTree builds the paper's running example tree and inspects its
// quorum structure.
func ExampleParseTree() {
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replicas:", t.N())
	fmt.Println("physical levels:", t.NumPhysicalLevels())
	fmt.Println("read quorums:", t.ReadQuorumCount())
	fmt.Println("write quorums:", t.WriteQuorumCount())
	// Output:
	// replicas: 8
	// physical levels: 2
	// read quorums: 15
	// write quorums: 2
}

// ExampleAnalyze reproduces the paper's §3.4 worked example.
func ExampleAnalyze() {
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		log.Fatal(err)
	}
	a := arbor.Analyze(t)
	fmt.Printf("read: cost %d, load %.4f, availability(0.7) %.2f\n",
		a.ReadCost, a.ReadLoad, a.ReadAvailability(0.7))
	fmt.Printf("write: cost %.0f, load %.1f, availability(0.7) %.2f\n",
		a.WriteCostAvg, a.WriteLoad, a.WriteAvailability(0.7))
	// Output:
	// read: cost 2, load 0.3333, availability(0.7) 0.97
	// write: cost 4, load 0.5, availability(0.7) 0.45
}

// ExampleAlgorithm1 shows the balanced configuration's headline metrics.
func ExampleAlgorithm1() {
	t, err := arbor.Algorithm1(100)
	if err != nil {
		log.Fatal(err)
	}
	a := arbor.Analyze(t)
	fmt.Printf("n=%d: read cost %d, read load %.2f, write load %.2f\n",
		t.N(), a.ReadCost, a.ReadLoad, a.WriteLoad)
	// Output:
	// n=100: read cost 10, read load 0.25, write load 0.10
}

// ExampleNewCluster runs a quorum write and read on a live simulated
// cluster.
func ExampleNewCluster() {
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		log.Fatal(err)
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "config", []byte("v1")); err != nil {
		log.Fatal(err)
	}
	rd, err := cli.Read(ctx, "config")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (version %d)\n", rd.Value, rd.TS.Version)
	// Output:
	// v1 (version 1)
}

// ExampleAdvise picks a tree for a write-heavy workload.
func ExampleAdvise() {
	adv, err := arbor.Advise(100, 0.9, 0.1, arbor.MinimizeCost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("levels:", adv.Tree.NumPhysicalLevels())
	fmt.Printf("write cost: %.1f\n", adv.Analysis.WriteCostAvg)
	// Output:
	// levels: 30
	// write cost: 3.3
}
