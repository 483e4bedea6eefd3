package cluster

import (
	"strconv"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

// registerMetrics installs the cluster-scoped metric families: network
// counters read at scrape time (messages on the in-memory network, frames
// and drops over TCP), per-level participation gauges recomputed
// from replica stats on every collection (Reset-ing first, so a
// reconfiguration that changes the number of levels never leaves stale
// series), and the Eq 3.2 closed-form loads next to their measured
// counterparts.
func (c *Cluster) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if c.sim != nil {
		reg.CounterFunc("arbor_network_messages_sent_total",
			"Messages handed to the simulated network.",
			func() uint64 { return c.sim.Stats().Sent })
		reg.CounterFunc("arbor_network_messages_delivered_total",
			"Messages delivered to an endpoint.",
			func() uint64 { return c.sim.Stats().Delivered })
		reg.CounterFunc("arbor_network_messages_dropped_total",
			"Messages lost to random drop, partition or congestion.",
			func() uint64 { return c.sim.Stats().Dropped })
		reg.CounterFunc("arbor_network_messages_delayed_total",
			"Messages whose delivery was deferred by configured latency.",
			func() uint64 { return c.sim.Stats().Delayed })
	} else {
		reg.CounterFunc("arbor_network_frames_out_total",
			"Frames written to a TCP socket, summed over the cluster's endpoints.",
			func() uint64 { return c.NetworkStats().TCP.FramesOut })
		reg.CounterFunc("arbor_network_frames_in_total",
			"Complete frames read off a TCP socket, summed over the cluster's endpoints.",
			func() uint64 { return c.NetworkStats().TCP.FramesIn })
		reg.CounterFunc("arbor_network_inbox_drops_total",
			"Decoded messages discarded because an unserved endpoint's delivery channel was full.",
			func() uint64 { return c.NetworkStats().TCP.InboxDrops })
		reg.CounterFunc("arbor_network_decode_drops_total",
			"Frames whose addresses or payload did not decode.",
			func() uint64 { return c.NetworkStats().TCP.DecodeDrops })
		reg.CounterFunc("arbor_network_dials_total",
			"TCP connections dialed, summed over the cluster's endpoints.",
			func() uint64 { return c.NetworkStats().TCP.Dials })
		reg.CounterFunc("arbor_network_evictions_total",
			"TCP connections removed from a route, broken or ended by the peer, summed over the cluster's endpoints.",
			func() uint64 { return c.NetworkStats().TCP.Evictions })
	}
	reg.CounterFunc("arbor_client_read_contacts_total",
		"Replica contacts sent by the reads of the cluster's clients, failed levels included.",
		func() uint64 { return c.OpTotals().ReadContacts })
	reg.CounterFunc("arbor_client_write_contacts_total",
		"Replica contacts sent by the writes and transactions of the cluster's clients (version discovery and prepares), failed levels included.",
		func() uint64 { return c.OpTotals().WriteContacts })

	levelSize := reg.GaugeVec("arbor_cluster_level_size",
		"Physical nodes on each physical level of the current tree.", "level")
	levelServes := reg.GaugeVec("arbor_cluster_level_serves",
		"Summed replica participations per physical level of the current tree, by kind: read = read-op accesses, write = prepares, discovery = version reads for writes.",
		"level", "kind")
	theory := reg.GaugeVec("arbor_cluster_load",
		"System load per Eq 3.2: source=theory is the closed form for the current tree; source=empirical is max per-site participations divided by issued operations.",
		"op", "source")
	health := reg.GaugeVec("arbor_replica_health",
		"Replica health lifecycle state per site: 0=down, 1=catching-up, 2=live.",
		"site")
	syncActive := reg.GaugeVec("arbor_replica_sync_active",
		"1 while the site runs an anti-entropy pass, else 0.",
		"site")

	reg.OnCollect(func() {
		for site, r := range c.replicas {
			p, l := r.SyncProgress(), strconv.Itoa(int(site))
			health.With(l).Set(healthGaugeValue(p.Health))
			active := 0.0
			if p.Active {
				active = 1
			}
			syncActive.With(l).Set(active)
		}
		snap := c.StatsSnapshot()
		levelSize.Reset()
		levelServes.Reset()
		perLevel := make(map[tree.SiteID]int, snap.Tree.N())
		for u := 0; u < snap.Proto.NumPhysicalLevels(); u++ {
			sites := snap.Proto.LevelSites(u)
			levelSize.With(strconv.Itoa(u)).Set(float64(len(sites)))
			for _, s := range sites {
				perLevel[s] = u
			}
		}
		reads := make(map[int]uint64)
		writes := make(map[int]uint64)
		disc := make(map[int]uint64)
		for _, s := range snap.Load.Sites {
			u, ok := perLevel[s.Site]
			if !ok {
				continue
			}
			reads[u] += s.ReadServes
			writes[u] += s.WriteServes
			disc[u] += s.DiscoveryServes
		}
		for u := 0; u < snap.Proto.NumPhysicalLevels(); u++ {
			l := strconv.Itoa(u)
			levelServes.With(l, "read").Set(float64(reads[u]))
			levelServes.With(l, "write").Set(float64(writes[u]))
			levelServes.With(l, "discovery").Set(float64(disc[u]))
		}
		check := snap.TheoryCheck()
		theory.With("read", "theory").Set(check.TheoryReadLoad)
		theory.With("write", "theory").Set(check.TheoryWriteLoad)
		theory.With("read", "empirical").Set(check.EmpiricalReadLoad)
		theory.With("write", "empirical").Set(check.EmpiricalWriteLoad)
	})
}

// healthGaugeValue orders the lifecycle states monotonically by "how
// alive": dashboards can alert on any site below 2.
func healthGaugeValue(h replica.Health) float64 {
	switch h {
	case replica.HealthDown:
		return 0
	case replica.HealthCatchingUp:
		return 1
	default:
		return 2
	}
}

// OpTotals aggregates every attached client's operation counters.
type OpTotals struct {
	Reads         uint64
	ReadFailures  uint64
	Writes        uint64
	WriteFailures uint64
	ReadContacts  uint64
	WriteContacts uint64
}

// ReadOps is the number of read operations issued, successful or not —
// the denominator of the empirical read load.
func (t OpTotals) ReadOps() int { return int(t.Reads + t.ReadFailures) }

// WriteOps is the number of write operations issued, successful or not.
func (t OpTotals) WriteOps() int { return int(t.Writes + t.WriteFailures) }

// OpTotals sums the metrics of all clients created through NewClient.
func (c *Cluster) OpTotals() OpTotals {
	c.mu.RLock()
	clients := c.clients
	c.mu.RUnlock()
	return sumOps(clients)
}

// sumOps adds up the clients' operation counters.
func sumOps(clients []*client.Client) OpTotals {
	var t OpTotals
	for _, cli := range clients {
		m := cli.Metrics()
		t.Reads += m.Reads
		t.ReadFailures += m.ReadFailures
		t.Writes += m.Writes
		t.WriteFailures += m.WriteFailures
		t.ReadContacts += m.ReadContacts
		t.WriteContacts += m.WriteContacts
	}
	return t
}

// StatsView is one consistent observation of the cluster: the tree and
// protocol are the pair that was current at the same instant (taken under
// the configuration lock, so a concurrent reconfiguration can never show the
// new tree with the old protocol or vice versa), alongside the load and
// client counters captured right after.
type StatsView struct {
	Tree  *tree.Tree
	Proto *core.Protocol
	Load  LoadReport
	Ops   OpTotals
}

// StatsSnapshot captures a consistent StatsView.
func (c *Cluster) StatsSnapshot() StatsView {
	c.mu.RLock()
	snap := StatsView{Tree: c.tree, Proto: c.proto}
	clients := c.clients
	c.mu.RUnlock()
	snap.Load = c.LoadReport()
	snap.Ops = sumOps(clients)
	return snap
}

// TheoryCheck compares the measured system load against the paper's Eq 3.2
// closed forms for the snapshot's tree.
type TheoryCheck struct {
	// TheoryReadLoad is L_RD = 1/d for the current tree.
	TheoryReadLoad float64
	// TheoryWriteLoad is L_WR = 1/|K_phy| for the current tree.
	TheoryWriteLoad float64
	// EmpiricalReadLoad is max per-site ReadServes / read operations.
	EmpiricalReadLoad float64
	// EmpiricalWriteLoad is max per-site WriteServes / write operations.
	EmpiricalWriteLoad float64
}

// ReadDeviation is empirical minus theoretical read load (positive when
// the system is more loaded than the optimum; failures and fallbacks push
// it up, short runs make it noisy).
func (t TheoryCheck) ReadDeviation() float64 { return t.EmpiricalReadLoad - t.TheoryReadLoad }

// WriteDeviation is empirical minus theoretical write load.
func (t TheoryCheck) WriteDeviation() float64 { return t.EmpiricalWriteLoad - t.TheoryWriteLoad }

// TheoryCheck evaluates the Eq 3.2 closed forms on the snapshot's tree and
// divides the measured per-site maxima by the operation counts observed in
// the same snapshot.
func (v StatsView) TheoryCheck() TheoryCheck {
	a := core.Analyze(v.Tree)
	return TheoryCheck{
		TheoryReadLoad:     a.ReadLoad,
		TheoryWriteLoad:    a.WriteLoad,
		EmpiricalReadLoad:  v.Load.MaxReadLoad(v.Ops.ReadOps()),
		EmpiricalWriteLoad: v.Load.MaxWriteLoad(v.Ops.WriteOps()),
	}
}

// TheoryCheck captures a consistent snapshot and runs the comparison.
func (c *Cluster) TheoryCheck() TheoryCheck {
	return c.StatsSnapshot().TheoryCheck()
}
