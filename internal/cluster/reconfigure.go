package cluster

import (
	"fmt"

	"arbor/internal/core"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

// Reconfigure shifts the cluster from its current tree to a new arrangement
// of the same replicas — the paper's headline capability: adapting to a
// changed read/write mix "by just modifying the structure of the tree",
// with no protocol change.
//
// The new tree must have exactly the same number of replicas; site k of the
// old tree becomes site k of the new one, possibly on a different physical
// level. Because read quorums of the new tree need not intersect write
// quorums of the old one, Reconfigure migrates data before switching: for
// every key it locates the most recent committed value across all replicas
// and installs it on every replica of one physical level of the NEW tree,
// so every new read quorum observes it. All replicas must be up and writes
// should be quiesced while reconfiguring (it is an administrative
// operation, like the paper's off-line restructuring).
func (c *Cluster) Reconfigure(newTree *tree.Tree) error {
	if newTree.N() != c.Tree().N() {
		return fmt.Errorf("cluster: reconfigure needs the same replica count (have %d, new tree has %d)",
			c.Tree().N(), newTree.N())
	}
	newProto, err := core.New(newTree)
	if err != nil {
		return fmt.Errorf("cluster: reconfigure: %w", err)
	}
	// Check in site order so the error names the same site every time a
	// given failure state is hit (deterministic harnesses journal it).
	for _, site := range c.Tree().Sites() {
		if c.replicas[site].Crashed() {
			return fmt.Errorf("cluster: reconfigure requires all replicas up; site %d is crashed", site)
		}
	}

	// Choose the smallest physical level of the new tree as the migration
	// target: installing each key's latest value there guarantees every
	// new read quorum (one node per new level) sees it, at minimal copy
	// cost.
	target := newProto.LevelSites(0)
	for u := 1; u < newProto.NumPhysicalLevels(); u++ {
		if sites := newProto.LevelSites(u); len(sites) < len(target) {
			target = sites
		}
	}

	// Latest committed version of every key across the whole system.
	type versioned struct {
		value []byte
		ts    replica.Timestamp
	}
	latest := make(map[string]versioned)
	for _, r := range c.replicas {
		for _, key := range r.Store().Keys() {
			value, ts, ok := r.Store().Get(key)
			if !ok {
				continue
			}
			if cur, seen := latest[key]; !seen || ts.After(cur.ts) {
				latest[key] = versioned{value: value, ts: ts}
			}
		}
	}

	// Install on the target level (idempotent: Apply keeps newer values).
	// A write the target's journal fails to take is not on stable storage:
	// the clients stay on the old tree.
	for key, v := range latest {
		for _, site := range target {
			if _, err := c.replicas[site].Store().Apply(key, v.value, v.ts); err != nil {
				return fmt.Errorf("cluster: reconfigure: migrate %q to site %d: %w", key, site, err)
			}
		}
	}

	// Switch every client to the new configuration.
	c.mu.Lock()
	c.tree = newTree
	c.proto = newProto
	clients := c.clients
	c.mu.Unlock()
	for _, cli := range clients {
		cli.SetProtocol(newProto)
	}
	return nil
}
