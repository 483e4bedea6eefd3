package cluster

import (
	"context"
	"fmt"
	"testing"

	"arbor/internal/tree"
)

func TestReconfigurePreservesData(t *testing.T) {
	c := newCluster(t, "1-8") // MOSTLY-READ shape: one level of 8
	cli := newClient(t, c)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := cli.Write(ctx, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}

	// Reshape into the 1-3-5 two-level tree (same 8 replicas).
	newTree, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(newTree); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if c.Tree().Spec() != "1-3-5" {
		t.Errorf("cluster tree = %s", c.Tree().Spec())
	}
	if cli.Protocol().NumPhysicalLevels() != 2 {
		t.Errorf("client still on old protocol (%d levels)", cli.Protocol().NumPhysicalLevels())
	}

	// Every key written before reconfiguration is visible through the new
	// quorum shapes.
	for i := 0; i < 5; i++ {
		rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after reconfigure: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(rd.Value) != want {
			t.Errorf("k%d = %q, want %q", i, rd.Value, want)
		}
	}

	// Writes continue under the new shape and reads see them.
	if _, err := cli.Write(ctx, "k0", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	rd, err := cli.Read(ctx, "k0")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "updated" {
		t.Errorf("post-reconfigure write invisible: %q", rd.Value)
	}
}

func TestReconfigureRoundTripSpectrum(t *testing.T) {
	// Walk a key through three configurations: read-optimized → balanced →
	// write-optimized, verifying the latest value at each step.
	c := newCluster(t, "1-9")
	cli := newClient(t, c)
	ctx := context.Background()

	if _, err := cli.Write(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	shapes := []string{"1-4-5", "1-2-3-4", "1-2-2-2-3"}
	for i, spec := range shapes {
		nt, err := tree.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Reconfigure(nt); err != nil {
			t.Fatalf("reconfigure to %s: %v", spec, err)
		}
		rd, err := cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read under %s: %v", spec, err)
		}
		want := fmt.Sprintf("v%d", i+1)
		if string(rd.Value) != want {
			t.Fatalf("under %s read %q, want %q", spec, rd.Value, want)
		}
		if _, err := cli.Write(ctx, "k", []byte(fmt.Sprintf("v%d", i+2))); err != nil {
			t.Fatalf("write under %s: %v", spec, err)
		}
	}
}

func TestReconfigureValidation(t *testing.T) {
	c := newCluster(t, "1-3-5")
	other, err := tree.ParseSpec("1-3-4") // 7 replicas ≠ 8
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(other); err == nil {
		t.Error("replica-count mismatch accepted")
	}

	same, err := tree.ParseSpec("1-2-6")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(same); err == nil {
		t.Error("reconfigure with a crashed replica accepted")
	}
	c.RecoverAll()
	if err := c.Reconfigure(same); err != nil {
		t.Errorf("reconfigure after recovery: %v", err)
	}
}

func TestReconfigureVersionsKeepIncreasing(t *testing.T) {
	// Version numbers must not regress across a reconfiguration, or later
	// writes could be shadowed.
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	var last uint64
	for i := 0; i < 3; i++ {
		wr, err := cli.Write(ctx, "k", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if wr.TS.Version <= last {
			t.Fatalf("version regressed: %d after %d", wr.TS.Version, last)
		}
		last = wr.TS.Version
	}
	nt, err := tree.ParseSpec("1-2-2-4")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(nt); err != nil {
		t.Fatal(err)
	}
	wr, err := cli.Write(ctx, "k", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.TS.Version <= last {
		t.Errorf("post-reconfigure version %d not above %d", wr.TS.Version, last)
	}
}

// TestReconfigureRefusesUnjournaledMigration: a migration write the target's
// journal fails to append fails the reconfiguration before any client
// leaves the old tree.
func TestReconfigureRefusesUnjournaledMigration(t *testing.T) {
	c := newConfiguredCluster(t, "1-3-5", Config{WALDir: t.TempDir()})
	cli := newClient(t, c)
	if _, err := cli.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.wals {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// 1-8 is one level of all eight sites: half of them lack k.
	newTree, err := tree.ParseSpec("1-8")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(newTree); err == nil {
		t.Fatal("a migration no journal took was reported done")
	}
	if spec := c.Tree().Spec(); spec != "1-3-5" {
		t.Errorf("cluster tree = %s after a failed reconfigure, want 1-3-5", spec)
	}
	if n := cli.Protocol().NumPhysicalLevels(); n != 2 {
		t.Errorf("client on a %d-level protocol after a failed reconfigure, want the old 2", n)
	}
}
