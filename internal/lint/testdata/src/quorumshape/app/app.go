// Package app exercises the quorumshape analyzer: cross-level
// accumulation of LevelSites results outside internal/{core,quorum}.
package app

import (
	"sort"

	"internal/tree"
)

// Addr mimics a transport address, to exercise conversion unwrapping.
type Addr int

// badUnion builds a full-tree site union — a hand-rolled quorum shape.
func badUnion(t *tree.Tree) []tree.SiteID {
	var q []tree.SiteID
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		q = append(q, t.LevelSites(u)...) // want `ad-hoc cross-level quorum assembly into q`
	}
	return q
}

// badOnePerLevel hand-picks one site per level into an outer slice: the
// shape of a read quorum, built without the canonical constructor.
func badOnePerLevel(t *tree.Tree) []tree.SiteID {
	q := make([]tree.SiteID, t.NumPhysicalLevels())
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		sites := t.LevelSites(u)
		q[u] = sites[0] // want `ad-hoc per-level quorum assembly into q`
	}
	return q
}

// badRangeElem accumulates range elements of a LevelSites result across
// levels, through a type conversion.
func badRangeElem(t *tree.Tree) []Addr {
	var q []Addr
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		for _, s := range t.LevelSites(u) {
			q = append(q, Addr(s)) // want `ad-hoc cross-level quorum assembly into q`
		}
	}
	return q
}

// table keeps every site in one flat slice, and each level's sites apart.
type table struct {
	flat  []Addr
	addrs [][]Addr
}

// badFieldAccumulation accumulates every level's sites into a field of a
// value declared outside the loop.
func badFieldAccumulation(t *tree.Tree) *table {
	lt := &table{}
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		for _, s := range t.LevelSites(u) {
			lt.flat = append(lt.flat, Addr(s)) // want `ad-hoc cross-level quorum assembly into lt\.flat`
		}
	}
	return lt
}

// goodPerLevelTable keeps each level's sites in that level's own slot, as
// the client engine's levelTable does.
func goodPerLevelTable(t *tree.Tree) *table {
	lt := &table{addrs: make([][]Addr, t.NumPhysicalLevels())}
	for u := range lt.addrs {
		sites := t.LevelSites(u)
		lt.addrs[u] = make([]Addr, len(sites))
		for i, s := range sites {
			lt.addrs[u][i] = Addr(s)
		}
	}
	return lt
}

// goodConsume only consumes sites inside the loop; nothing accumulates.
func goodConsume(t *tree.Tree, load map[tree.SiteID]int) int {
	total := 0
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		for _, s := range t.LevelSites(u) {
			total += load[s]
		}
	}
	return total
}

// goodPerLevelCounts stores a scalar derived per level, not the sites.
func goodPerLevelCounts(t *tree.Tree) []int {
	counts := make([]int, t.NumPhysicalLevels())
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		counts[u] = len(t.LevelSites(u))
	}
	return counts
}

// goodLocalScratch accumulates into a slice local to the loop body.
func goodLocalScratch(t *tree.Tree) int {
	max := 0
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		var level []tree.SiteID
		level = append(level, t.LevelSites(u)...)
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		if len(level) > max {
			max = len(level)
		}
	}
	return max
}

// suppressed shows a //lint:ignore escape hatch for deliberate unions.
func suppressed(t *tree.Tree) []tree.SiteID {
	var all []tree.SiteID
	for u := 0; u < t.NumPhysicalLevels(); u++ {
		//lint:ignore quorumshape debugging helper dumps every site, not a quorum
		all = append(all, t.LevelSites(u)...)
	}
	return all
}
