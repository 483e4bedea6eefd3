package arbor_test

// Cross-feature integration: durability (WAL), live reconfiguration,
// transactions and failure handling composed through the public API, the
// way a downstream application would use them.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"arbor"
)

func TestIntegrationDurableReshapedTransactionalStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Phase 1: a WAL-backed cluster takes transactional writes.
	t1, err := arbor.ParseTree("1-8")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := arbor.NewCluster(t1, arbor.ClusterConfig{Seed: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cli1, err := c1.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	tx := cli1.NewTxn()
	for i := 0; i < 3; i++ {
		if err := tx.Write(fmt.Sprintf("acct-%d", i), []byte("100")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reshape live (workload turned write-heavy).
	t2, err := arbor.ParseTree("1-2-2-4")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Reconfigure(t2); err != nil {
		t.Fatal(err)
	}
	if _, err := cli1.Write(ctx, "acct-0", []byte("70")); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Phase 3: cold restart from the WAL on the reshaped tree.
	c2, err := arbor.NewCluster(t2, arbor.ClusterConfig{Seed: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cli2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := cli2.Read(ctx, "acct-0")
	if err != nil {
		t.Fatalf("read after WAL restart: %v", err)
	}
	if string(rd.Value) != "70" {
		t.Errorf("acct-0 = %q, want the post-reshape write", rd.Value)
	}
	for i := 1; i < 3; i++ {
		rd, err := cli2.Read(ctx, fmt.Sprintf("acct-%d", i))
		if err != nil || string(rd.Value) != "100" {
			t.Errorf("acct-%d = %q, %v", i, rd.Value, err)
		}
	}

	// Phase 4: failure handling still behaves per the protocol.
	if err := c2.CrashLevel(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli2.Read(ctx, "acct-0"); !errors.Is(err, arbor.ErrReadUnavailable) {
		t.Errorf("read with a level down = %v, want ErrReadUnavailable", err)
	}
	c2.RecoverAll()
	if _, err := cli2.Read(ctx, "acct-0"); err != nil {
		t.Errorf("read after recovery: %v", err)
	}
}

func TestIntegrationCheckpointThenWALlessRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	t1, err := arbor.ParseTree("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := arbor.NewCluster(t1, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := c1.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := arbor.NewCluster(t1, arbor.ClusterConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.RestoreCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	cli2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := cli2.Read(ctx, "k")
	if err != nil || string(rd.Value) != "v" {
		t.Errorf("read after checkpoint restore: %q, %v", rd.Value, err)
	}
}
