package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"arbor/internal/tree"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Populate and checkpoint a cluster.
	c1 := newCluster(t, "1-3-5")
	cli1 := newClient(t, c1)
	for i := 0; i < 5; i++ {
		if _, err := cli1.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A cold-started cluster on the same tree restores the data.
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(tr, Config{Seed: 2})
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
	for i := 0; i < 5; i++ {
		rd, err := cli2.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after restore: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}
	// Writes continue with monotonically increasing versions.
	wr, err := cli2.Write(ctx, "k0", []byte("newer"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.TS.Version < 2 {
		t.Errorf("post-restore version %d should continue from the checkpoint", wr.TS.Version)
	}
}

func TestRestoreCheckpointSkipsMissingFiles(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, "1-2-3")
	if err := c.RestoreCheckpoint(dir); err != nil {
		t.Errorf("restore from empty dir: %v", err)
	}
}

func TestRestoreCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "site-1.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, "1-2-3")
	if err := c.RestoreCheckpoint(dir); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestCheckpointCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "checkpoints")
	c := newCluster(t, "1-2-3")
	cli := newClient(t, c)
	if _, err := cli.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 { // one snapshot per replica (tree 1-2-3 has n=5)
		t.Errorf("%d snapshots, want 5", len(entries))
	}
}

func TestWALDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	c1 := newConfiguredCluster(t, "1-3-5", Config{WALDir: dir})
	cli1 := newClient(t, c1)
	for i := 0; i < 4; i++ {
		if _, err := cli1.Write(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	// A brand new cluster on the same WAL directory recovers everything.
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(tr, Config{Seed: 3, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cli2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rd, err := cli2.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after restart: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}
	// And keeps journaling new writes.
	if _, err := cli2.Write(ctx, "k0", []byte("after-restart")); err != nil {
		t.Fatal(err)
	}
}

func TestWALDirCreationFailure(t *testing.T) {
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	// A file where the directory should be makes MkdirAll fail.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(tr, Config{WALDir: filepath.Join(blocker, "wal")}); err == nil {
		t.Error("cluster with unusable WAL dir started")
	}
}
