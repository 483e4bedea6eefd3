package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/core"
	"arbor/internal/tree"
)

// The live comparison's workload (experiment X-LIVE of DESIGN.md): fixed, so
// the measured table is reproducible and EXPERIMENTS.md can quote it.
const (
	liveN            = 65 // odd: MOSTLY-WRITE needs it
	liveOps          = 400
	liveReadFraction = 0.8
	liveSeed         = 1
)

// emitLive measures per-operation replica contacts for three points of the
// configuration spectrum at the same n on a running cluster and prints them
// against the closed-form predictions — a live, measured rendition of
// Figure 2.
func emitLive(w io.Writer) error {
	mostlyRead, err := tree.MostlyRead(liveN)
	if err != nil {
		return err
	}
	balanced, err := tree.Algorithm1(liveN)
	if err != nil {
		return err
	}
	mostlyWrite, err := tree.MostlyWrite(liveN)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "live configuration comparison: n=%d, %d ops, %.0f%% reads\n\n", liveN, liveOps, liveReadFraction*100)
	fmt.Fprintf(w, "%-14s %-22s %12s %10s %13s %11s\n",
		"configuration", "tree", "read cont.", "(theory)", "write cont.", "(theory)")
	for _, cfg := range []struct {
		name string
		t    *tree.Tree
	}{
		{name: "MOSTLY-READ", t: mostlyRead},
		{name: "BALANCED", t: balanced},
		{name: "MOSTLY-WRITE", t: mostlyWrite},
	} {
		if err := measureConfig(w, cfg.name, cfg.t); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nwrite contacts include the version-discovery read quorum (|K_phy| extra).")
	fmt.Fprintln(w)
	return nil
}

// measureConfig runs the workload on one configuration and prints measured
// vs predicted contacts.
func measureConfig(w io.Writer, name string, t *tree.Tree) error {
	c, err := cluster.New(t, cluster.Config{Seed: liveSeed})
	if err != nil {
		return err
	}
	defer c.Close()
	// No hedges: a backup probe launched because the machine was slow is
	// a contact the paper does not price, and would make the table vary.
	cli, err := c.NewClient(client.WithHedging(false))
	if err != nil {
		return err
	}
	ctx := context.Background()

	var readContacts, writeContacts, reads, writes int
	for i := 0; i < liveOps; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if float64(i%100)/100 < liveReadFraction {
			rd, err := cli.Read(ctx, key)
			if err != nil && !errors.Is(err, client.ErrNotFound) {
				return fmt.Errorf("%s read: %w", name, err)
			}
			readContacts += rd.Contacts
			reads++
			continue
		}
		wr, err := cli.Write(ctx, key, []byte("v"))
		if err != nil {
			return fmt.Errorf("%s write: %w", name, err)
		}
		writeContacts += wr.Contacts
		writes++
	}

	a := core.Analyze(t)
	spec := t.Spec()
	if len(spec) > 22 {
		spec = spec[:19] + "..."
	}
	fmt.Fprintf(w, "%-14s %-22s %12.2f %10d %13.2f %11.2f\n", name, spec,
		float64(readContacts)/float64(reads), a.ReadCost,
		float64(writeContacts)/float64(writes), float64(a.ReadCost)+a.WriteCostAvg)
	return nil
}
