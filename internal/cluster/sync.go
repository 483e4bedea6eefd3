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

// AwaitSync blocks until no replica is catching up or running a sync pass,
// or the context expires. A sync that cannot progress is blocked, not
// pending, and AwaitSync does not wait for it: some level of its plan has
// no member that is up and reachable from the syncing site, so only a
// recovery or a heal can unblock it. AwaitSync polls: sync passes are
// replica-internal goroutines and completion is observable only through
// their progress.
func (c *Cluster) AwaitSync(ctx context.Context) error {
	for {
		settled := true
		for site, r := range c.replicas {
			p := r.SyncProgress()
			if (p.Health == replica.HealthCatchingUp || p.Active) && !c.syncBlocked(site) {
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

// syncBlocked reports whether some level of site's catch-up plan has no
// member that is up and in site's partition group.
func (c *Cluster) syncBlocked(site tree.SiteID) bool {
	for _, peers := range c.syncPlanFor(site).Peers {
		open := false
		for _, p := range peers {
			r := c.replicas[tree.SiteID(p)]
			if r != nil && r.Health() != replica.HealthDown && (c.sim == nil || c.sim.Reachable(transport.Addr(site), p)) {
				open = true
				break
			}
		}
		if !open {
			return true
		}
	}
	return false
}
