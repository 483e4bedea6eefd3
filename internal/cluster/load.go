package cluster

import (
	"sort"

	"arbor/internal/tree"
)

// SiteLoad is one replica's share of operation participations.
type SiteLoad struct {
	Site tree.SiteID
	// ReadServes counts the replica's participations in read operations:
	// read requests plus version requests issued by reads. Version
	// requests issued as the discovery step of writes are attributed to
	// DiscoveryServes instead, so ReadServes matches the paper's read
	// load definition under mixed workloads.
	ReadServes uint64
	// WriteServes counts prepare requests the replica answered (its
	// participations in write quorums).
	WriteServes uint64
	// DiscoveryServes counts version requests the replica answered for
	// writes' version-discovery quorums (read-shaped traffic caused by
	// writes, reported separately from read load).
	DiscoveryServes uint64
}

// LoadReport aggregates per-replica participation counters, the empirical
// counterpart of the paper's system load: dividing a site's participations
// by the number of operations yields the fraction of operations that
// touched it, whose maximum over sites is the induced load.
type LoadReport struct {
	Sites []SiteLoad
}

// LoadReport snapshots every replica's participation counters, ordered by
// site ID.
func (c *Cluster) LoadReport() LoadReport {
	rep := LoadReport{Sites: make([]SiteLoad, 0, len(c.replicas))}
	for site, r := range c.replicas {
		st := r.Stats()
		rep.Sites = append(rep.Sites, SiteLoad{
			Site:            site,
			ReadServes:      st.Reads + st.Versions - st.VersionsForWrite,
			WriteServes:     st.Prepares,
			DiscoveryServes: st.VersionsForWrite,
		})
	}
	sort.Slice(rep.Sites, func(i, j int) bool { return rep.Sites[i].Site < rep.Sites[j].Site })
	return rep
}

// MaxReadLoad returns the empirical read load: the largest per-site
// ReadServes divided by the number of read operations issued.
func (r LoadReport) MaxReadLoad(ops int) float64 {
	if ops <= 0 {
		return 0
	}
	var max uint64
	for _, s := range r.Sites {
		if s.ReadServes > max {
			max = s.ReadServes
		}
	}
	return float64(max) / float64(ops)
}

// MaxWriteLoad returns the empirical write load: the largest per-site
// WriteServes divided by the number of write operations issued.
func (r LoadReport) MaxWriteLoad(ops int) float64 {
	if ops <= 0 {
		return 0
	}
	var max uint64
	for _, s := range r.Sites {
		if s.WriteServes > max {
			max = s.WriteServes
		}
	}
	return float64(max) / float64(ops)
}
