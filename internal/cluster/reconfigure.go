package cluster

import (
	"context"
	"fmt"

	"arbor/internal/core"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

// reconfigure shifts the cluster from its current tree to a new arrangement
// of the same replicas — the paper's headline capability: adapting to a
// changed read/write mix "by just modifying the structure of the tree",
// with no protocol change.
//
// The new tree must have exactly the same number of replicas; site k of the
// old tree becomes site k of the new one, possibly on a different physical
// level. Because read quorums of the new tree need not intersect write
// quorums of the old one, reconfigure migrates data before switching: each
// site of the new tree's smallest physical level runs a recovery's catch-up
// in place, planned on the old tree. Every acknowledged write is on all
// sites of some old level, so the passes pull it. The clients switch once
// every pass is done (under ctx), and a WALDir records the new tree first.
// All replicas must be up and writes should be quiesced while
// reconfiguring (it is an administrative operation, like the paper's
// off-line restructuring). ApplyEvent runs it for Event.Reconfigure.
func (c *Cluster) reconfigure(ctx context.Context, newTree *tree.Tree) error {
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

	// The smallest physical level of the new tree is the migration target:
	// it guarantees every new read quorum sees each key's latest value, at
	// minimal copy cost.
	target := newProto.LevelSites(0)
	for u := 1; u < newProto.NumPhysicalLevels(); u++ {
		if sites := newProto.LevelSites(u); len(sites) < len(target) {
			target = sites
		}
	}
	for _, site := range target {
		if c.syncBlocked(site) {
			return fmt.Errorf("cluster: reconfigure: site %d cannot catch up: a level of its plan is out of reach", site)
		}
	}
	// A pass already running may have walked past keys written since it
	// began: it is waited out before each target's own pass starts.
	if err := c.AwaitSync(ctx); err != nil {
		return fmt.Errorf("cluster: reconfigure: %w", err)
	}
	for _, site := range target {
		c.replicas[site].Recover(c.syncPlanFor(site))
	}
	if err := c.AwaitSync(ctx); err != nil {
		return fmt.Errorf("cluster: reconfigure: migration: %w", err)
	}
	for _, site := range target {
		if p := c.replicas[site].SyncProgress(); p.Active || p.Health != replica.HealthLive {
			return fmt.Errorf("cluster: reconfigure: site %d did not catch up", site)
		}
	}
	if c.cfg.WALDir != "" {
		if err := recordTree(c.cfg.WALDir, newTree); err != nil {
			return err
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
