package arbor_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"arbor"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tr, err := arbor.ParseTree("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	if err := arbor.ValidateTree(tr); err != nil {
		t.Fatal(err)
	}
	a := arbor.Analyze(tr)
	if a.ReadCost != 2 || math.Abs(a.WriteCostAvg-4) > 1e-12 {
		t.Errorf("analysis = %+v", a)
	}

	c, err := arbor.NewCluster(tr, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "v" {
		t.Errorf("read %q", rd.Value)
	}
	if _, err := cli.Read(ctx, "other"); !errors.Is(err, arbor.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestFacadeBuilders(t *testing.T) {
	if tr, err := arbor.NewTree(3, 5); err != nil || tr.N() != 8 {
		t.Errorf("NewTree: %v %v", tr, err)
	}
	if tr, err := arbor.Algorithm1(100); err != nil || tr.N() != 100 {
		t.Errorf("Algorithm1: %v %v", tr, err)
	}
	if tr, err := arbor.MostlyRead(10); err != nil || tr.NumPhysicalLevels() != 1 {
		t.Errorf("MostlyRead: %v %v", tr, err)
	}
	if tr, err := arbor.MostlyWrite(11); err != nil || tr.NumPhysicalLevels() != 5 {
		t.Errorf("MostlyWrite: %v %v", tr, err)
	}
}

func TestFacadeAdvise(t *testing.T) {
	adv, err := arbor.Advise(64, 0.9, 0.9, arbor.MinimizeLoad)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Tree == nil || adv.Tree.N() != 64 {
		t.Errorf("advice = %+v", adv)
	}
}

// TestFacadeClientOptions exercises the client-construction options
// re-exported by the facade, and a pinned write.
func TestFacadeClientOptions(t *testing.T) {
	tr, err := arbor.ParseTree("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := arbor.NewCluster(tr, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(
		arbor.WithTimeout(150*time.Millisecond),
		arbor.WithClientSeed(7),
		arbor.WithHedgeDelay(3*time.Millisecond),
		arbor.WithHedging(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wr, err := cli.WriteAt(ctx, "k", []byte("v"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Level != 1 {
		t.Errorf("pinned write landed on level %d, want 1", wr.Level)
	}
	if _, err := cli.Write(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if rd, err := cli.Read(ctx, "k"); err != nil || string(rd.Value) != "v2" {
		t.Fatalf("Read = %q, %v", rd.Value, err)
	}
}

// TestFacadeErrTimeoutMatching: unavailability errors must wrap the
// underlying call timeouts, so errors.Is against the re-exported
// arbor.ErrTimeout distinguishes "replicas timed out" from other causes.
func TestFacadeErrTimeoutMatching(t *testing.T) {
	tr, err := arbor.ParseTree("1-2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := arbor.NewCluster(tr, arbor.ClusterConfig{Seed: 1, ClientTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyEvent(ctx, arbor.Event{Crash: c.Protocol().LevelSites(0)}); err != nil {
		t.Fatal(err)
	}
	_, err = cli.Read(ctx, "k")
	if !errors.Is(err, arbor.ErrReadUnavailable) {
		t.Fatalf("read err = %v, want ErrReadUnavailable", err)
	}
	if !errors.Is(err, arbor.ErrTimeout) {
		t.Errorf("read err = %v does not match arbor.ErrTimeout", err)
	}
	_, err = cli.Write(ctx, "k", []byte("v2"))
	if !errors.Is(err, arbor.ErrWriteUnavailable) {
		t.Fatalf("write err = %v, want ErrWriteUnavailable", err)
	}
	if !errors.Is(err, arbor.ErrTimeout) {
		t.Errorf("write err = %v does not match arbor.ErrTimeout", err)
	}
}
