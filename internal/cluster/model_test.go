package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"arbor/internal/client"
	"arbor/internal/tree"
)

// TestQuickSequentialModelEquivalence drives a random sequential operation
// stream (including crashes and recoveries that keep quorums available)
// through a random cluster and compares every read against an in-memory
// model map — the strongest single-threaded one-copy check.
func TestQuickSequentialModelEquivalence(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Random tree: 2-3 physical levels of 2-4 replicas.
		levels := 2 + rng.Intn(2)
		counts := make([]int, levels)
		prev := 2
		for i := range counts {
			counts[i] = prev + rng.Intn(3)
			prev = counts[i]
		}
		tr, err := tree.PhysicalLevelSizes(counts...)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		c, err := New(tr, Config{Seed: seed, ClientTimeout: 25 * time.Millisecond})
		if err != nil {
			return false
		}
		defer c.Close()
		cli, err := c.NewClient()
		if err != nil {
			return false
		}

		ctx := context.Background()
		model := make(map[string]string)
		keys := []string{"a", "b", "c"}
		crashed := make(map[tree.SiteID]bool)

		for step := 0; step < 40; step++ {
			switch rng.Intn(10) {
			case 0: // crash one replica, keeping ≥1 up per level
				site := tr.Sites()[rng.Intn(tr.N())]
				level := tr.SiteLevel(site)
				up := 0
				for _, s := range tr.LevelSites(level) {
					if !crashed[s] {
						up++
					}
				}
				if up > 1 {
					crashed[site] = true
					if err := c.ApplyEvent(ctx, Event{Crash: []tree.SiteID{site}}); err != nil {
						return false
					}
				}
			case 1: // recover everyone
				apply(t, c, "recoverall")
				if err := c.AwaitSync(ctx); err != nil {
					return false
				}
				crashed = make(map[tree.SiteID]bool)
			default:
				key := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					val := fmt.Sprintf("s%d", step)
					_, err := cli.Write(ctx, key, []byte(val))
					if err != nil {
						// With one replica down per level, writes may
						// legitimately fail (no full level). The model
						// must not change.
						if errors.Is(err, client.ErrWriteUnavailable) {
							continue
						}
						t.Logf("seed %d step %d: write: %v", seed, step, err)
						return false
					}
					model[key] = val
					continue
				}
				rd, err := cli.Read(ctx, key)
				want, exists := model[key]
				switch {
				case err == nil:
					if !exists || want != string(rd.Value) {
						t.Logf("seed %d step %d: read %q = %q, model %q (exists=%v)",
							seed, step, key, rd.Value, want, exists)
						return false
					}
				case errors.Is(err, client.ErrNotFound):
					if exists {
						t.Logf("seed %d step %d: read %q not found, model has %q", seed, step, key, want)
						return false
					}
				default:
					t.Logf("seed %d step %d: read: %v", seed, step, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
