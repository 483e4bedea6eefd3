package cluster

import (
	"context"
	"fmt"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// syncPlanFor builds the anti-entropy catch-up plan for site: one peer list
// per physical level the site does not belong to, in level order. Every
// write the site missed while down landed on a level that prepared without
// it — necessarily one of these — and a committed write is on all members
// of its landing level, so any member is a valid source. The site's own
// levels are skipped: a write there either reached the site before it
// crashed or the level's 2PC could not complete and fell through to
// another level.
func (c *Cluster) syncPlanFor(site tree.SiteID) replica.SyncPlan {
	proto := c.Protocol()
	plan := replica.SyncPlan{
		Config: replica.SyncConfig{
			CallTimeout: c.cfg.ClientTimeout,
			RetryBase:   c.cfg.ClientTimeout / 4,
			Seed:        c.cfg.Seed + int64(site),
		},
	}
	for u := 0; u < proto.NumPhysicalLevels(); u++ {
		sites := proto.LevelSites(u)
		member := false
		for _, s := range sites {
			if s == site {
				member = true
				break
			}
		}
		if member {
			continue
		}
		peers := make([]transport.Addr, len(sites))
		for i, s := range sites {
			peers[i] = transport.Addr(s)
		}
		plan.Peers = append(plan.Peers, peers)
	}
	return plan
}

// RecoverWithSync brings a crashed site back through the catching-up state:
// the replica serves 2PC immediately but refuses reads until an anti-entropy
// pass against one live member of every other physical level has pulled
// every newer version it missed. Recovery of a site that is not down only
// (re)starts a sync pass.
func (c *Cluster) RecoverWithSync(site tree.SiteID) error {
	r, ok := c.replicas[site]
	if !ok {
		return fmt.Errorf("cluster: unknown site %d", site)
	}
	plan := c.syncPlanFor(site)
	if r.Health() == replica.HealthDown {
		r.RecoverCatchingUp(plan)
	} else {
		r.StartSync(plan)
	}
	return nil
}

// RecoverAllWithSync recovers every crashed replica through the
// catching-up state (see RecoverWithSync).
func (c *Cluster) RecoverAllWithSync() {
	for site, r := range c.replicas {
		if r.Health() == replica.HealthDown {
			r.RecoverCatchingUp(c.syncPlanFor(site))
		}
	}
}

// SyncAll starts an anti-entropy pass on every replica: crashed replicas
// recover through the catching-up state, live ones sync in place (closing
// gaps left by partitions or dropped repair traffic). Use AwaitSync to wait
// for convergence.
func (c *Cluster) SyncAll() {
	for site, r := range c.replicas {
		if r.Health() == replica.HealthDown {
			r.RecoverCatchingUp(c.syncPlanFor(site))
		} else {
			r.StartSync(c.syncPlanFor(site))
		}
	}
}

// AwaitSync blocks until no replica is catching up or running a sync pass,
// or the context expires. It polls: sync passes are replica-internal
// goroutines and completion is observable only through their progress.
func (c *Cluster) AwaitSync(ctx context.Context) error {
	for {
		settled := true
		for _, r := range c.replicas {
			p := r.SyncProgress()
			if p.Health == replica.HealthCatchingUp || p.Active {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: await sync: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Health reports the site's replica health.
func (c *Cluster) Health(site tree.SiteID) (replica.Health, error) {
	r, ok := c.replicas[site]
	if !ok {
		return 0, fmt.Errorf("cluster: unknown site %d", site)
	}
	return r.Health(), nil
}

// Healths snapshots every replica's health.
func (c *Cluster) Healths() map[tree.SiteID]replica.Health {
	out := make(map[tree.SiteID]replica.Health, len(c.replicas))
	for site, r := range c.replicas {
		out[site] = r.Health()
	}
	return out
}
