package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/tree"
)

// TestEmpiricalReadLoadMatchesTheory drives reads through the cluster and
// checks that the busiest replica's share approaches the optimal read load
// L_RD = 1/d (= 1/3 for the 1-3-5 tree).
func TestEmpiricalReadLoadMatchesTheory(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	preRep := c.LoadReport() // discount the write's version discovery

	const ops = 1200
	for i := 0; i < ops; i++ {
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.LoadReport()
	for i := range rep.Sites {
		rep.Sites[i].ReadServes -= preRep.Sites[i].ReadServes
	}
	got := rep.MaxReadLoad(ops)
	want := core.Analyze(c.Tree()).ReadLoad // 1/3
	if math.Abs(got-want) > 0.05 {
		t.Errorf("empirical read load %v, theory %v", got, want)
	}
}

// TestEmpiricalWriteLoadMatchesTheory drives writes and checks the busiest
// replica's prepare share approaches L_WR = 1/|K_phy| (= 1/2 for 1-3-5).
func TestEmpiricalWriteLoadMatchesTheory(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()

	const ops = 600
	for i := 0; i < ops; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i%7), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.LoadReport()
	got := rep.MaxWriteLoad(ops)
	want := core.Analyze(c.Tree()).WriteLoad // 1/2
	if math.Abs(got-want) > 0.06 {
		t.Errorf("empirical write load %v, theory %v", got, want)
	}
}

// TestEmpiricalAvailabilityMatchesTheory samples random crash patterns at
// replica availability p and compares the fraction of successful reads and
// writes against RD/WR availability formulas.
func TestEmpiricalAvailabilityMatchesTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("availability sampling is slow")
	}
	const (
		spec   = "1-2-3"
		p      = 0.8
		trials = 120
	)
	c := newConfiguredCluster(t, spec, Config{ClientTimeout: 60 * time.Millisecond})
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	sites := c.Tree().Sites()
	readOK, writeOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		for _, s := range sites {
			if rng.Float64() >= p {
				if err := c.Crash(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := cli.Read(ctx, "k"); err == nil {
			readOK++
		} else if !errors.Is(err, client.ErrReadUnavailable) {
			t.Fatalf("unexpected read error: %v", err)
		}
		if _, err := cli.Write(ctx, "k", []byte("v")); err == nil {
			writeOK++
		} else if !errors.Is(err, client.ErrWriteUnavailable) {
			t.Fatalf("unexpected write error: %v", err)
		}
		c.RecoverAll()
	}

	a := core.Analyze(c.Tree())
	gotRead := float64(readOK) / trials
	gotWrite := float64(writeOK) / trials
	// Write availability on the live cluster is conditioned on version
	// discovery (a read quorum), so the observed rate tracks
	// RD_avail·WR_avail-ish; allow generous sampling tolerance.
	if math.Abs(gotRead-a.ReadAvailability(p)) > 0.13 {
		t.Errorf("empirical read availability %v vs formula %v", gotRead, a.ReadAvailability(p))
	}
	wantWrite := a.ReadAvailability(p) * a.WriteAvailability(p)
	if math.Abs(gotWrite-wantWrite) > 0.15 {
		t.Errorf("empirical write availability %v vs ≈%v", gotWrite, wantWrite)
	}
}

// TestReadCostMatchesTheory: with no failures, a read touches exactly
// |K_phy| replicas and a write touches |K_phy| (version) + level size.
func TestOperationCostsMatchTheory(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "seed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(c.Tree())

	rd, err := cli.Read(ctx, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if rd.Contacts != a.ReadCost {
		t.Errorf("read contacts = %d, want RD_cost = %d", rd.Contacts, a.ReadCost)
	}

	// Average write contact count over many writes ≈ |K_phy| (version
	// discovery) + WR_cost (average level size).
	const ops = 400
	total := 0
	for i := 0; i < ops; i++ {
		wr, err := cli.Write(ctx, "seed", []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		total += wr.Contacts
	}
	got := float64(total) / ops
	want := float64(a.ReadCost) + a.WriteCostAvg
	if math.Abs(got-want) > 0.25 {
		t.Errorf("average write contacts %v, want ≈ %v", got, want)
	}
}

// TestLoadReportHelpers covers the report arithmetic.
func TestLoadReportHelpers(t *testing.T) {
	rep := LoadReport{Sites: []SiteLoad{
		{Site: 1, ReadServes: 10, WriteServes: 4},
		{Site: 2, ReadServes: 30, WriteServes: 2},
	}}
	if got := rep.MaxReadLoad(100); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MaxReadLoad = %v", got)
	}
	if got := rep.MaxWriteLoad(10); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("MaxWriteLoad = %v", got)
	}
	if rep.MaxReadLoad(0) != 0 || rep.MaxWriteLoad(-1) != 0 {
		t.Error("zero-op loads should be 0")
	}
}

// TestLoadReportOrdering: sites are reported in ascending ID order.
func TestLoadReportOrdering(t *testing.T) {
	tr, err := tree.ParseSpec("1-2-2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.LoadReport()
	if len(rep.Sites) != 4 {
		t.Fatalf("got %d sites", len(rep.Sites))
	}
	for i, s := range rep.Sites {
		if s.Site != tree.SiteID(i+1) {
			t.Errorf("Sites[%d] = %d", i, s.Site)
		}
	}
}
