package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/tree"
	"arbor/internal/workload"
)

// faultSeedSalt decorrelates the fault stream from the workload stream so
// the two generators don't mirror each other at small seeds.
const faultSeedSalt = 0x5deece66d

// BuildInput derives the run's concrete op stream and fault schedule from
// the configuration. The same Config always yields the same Input.
func BuildInput(cfg Config) (Input, error) {
	cfg = cfg.withDefaults()
	ops, err := buildOps(cfg)
	if err != nil {
		return Input{}, err
	}
	events, err := buildEvents(cfg)
	if err != nil {
		return Input{}, err
	}
	// Markers sort ahead of the faults of their tick, wherever those come
	// from (generated here, or explicit lines a scenario merges in later).
	events = append(phaseMarkers(cfg), events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return Input{Cfg: cfg, Ops: ops, Events: events}, nil
}

// phaseMarkers derives the workload= marker events from the phase list:
// one at each phase's first tick. The markers carry no cluster action —
// the op stream itself is generated phase-aware — but they make the shift
// visible in traces and keep the schedule self-describing. The op stream
// deliberately does NOT depend on these events, and a run written out as a
// scenario leaves them out: BuildInput derives them again on replay.
func phaseMarkers(cfg Config) []cluster.Event {
	var out []cluster.Event
	tick := 0
	for _, p := range cfg.Phases {
		profile := p.Profile
		if profile == "" {
			profile = ProfileBalanced
		}
		out = append(out, cluster.Event{
			At:       time.Duration(tick) * time.Millisecond,
			Workload: string(profile),
		})
		tick += p.Ops
	}
	return out
}

// IsMarker reports whether ev is a bare workload= marker: trace-only, no
// cluster action.
func IsMarker(ev cluster.Event) bool {
	return ev.Workload != "" && ev.String() == cluster.Event{At: ev.At, Workload: ev.Workload}.String()
}

// opSource is the common face of the plain and phased generators.
type opSource interface {
	Next() workload.Op
}

// buildOps generates the full operation stream. Write values encode the
// seed and op index, so they are reconstructible from a reproducer's
// keep list without shipping payloads. With Phases set, the stream is
// phase-aware: each phase draws from its own profile, with a per-phase
// salted seed so consecutive phases don't mirror each other's key picks.
func buildOps(cfg Config) ([]OpSpec, error) {
	var gen opSource
	if len(cfg.Phases) > 0 {
		phases := make([]workload.Phase, len(cfg.Phases))
		for i, p := range cfg.Phases {
			rf, err := p.Profile.ReadFraction()
			if err != nil {
				return nil, err
			}
			phases[i] = workload.Phase{
				Config: workload.Config{
					ReadFraction: rf,
					Keys:         cfg.Keys,
					ZipfS:        p.Zipf,
					Seed:         cfg.Seed + int64(i),
				},
				Ops: p.Ops,
			}
		}
		pg, err := workload.NewPhasedGenerator(phases)
		if err != nil {
			return nil, fmt.Errorf("sim: workload: %w", err)
		}
		gen = pg
	} else {
		rf, err := cfg.Profile.ReadFraction()
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGenerator(workload.Config{
			ReadFraction: rf,
			Keys:         cfg.Keys,
			ZipfS:        cfg.Zipf,
			Seed:         cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: workload: %w", err)
		}
		gen = g
	}
	ops := make([]OpSpec, cfg.Ops)
	for i := range ops {
		op := gen.Next()
		ops[i] = OpSpec{Index: i, Read: op.IsRead, Key: op.Key}
		if !op.IsRead {
			ops[i].Value = fmt.Sprintf("s%d.%d", cfg.Seed, i)
		}
	}
	return ops, nil
}

// buildEvents generates the fault schedule: cfg.Faults events at ticks in
// [0, cfg.Ops], each drawn from a weighted mix of crash, recover,
// recover-all, partition, heal and whole-cluster restart. Quick recoveries
// outweigh crashes slightly less than half the time, so runs spend real
// stretches degraded without starving the workload entirely. With
// AntiEntropy on, recoveries go through the catch-up path instead of being
// instant — the same ticks and the same sites, so the two modes differ only
// in how a replica rejoins.
func buildEvents(cfg Config) ([]cluster.Event, error) {
	tr, err := tree.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sites := tr.Sites()
	rng := rand.New(rand.NewSource(cfg.Seed ^ faultSeedSalt))
	var events []cluster.Event
	for i := 0; i < cfg.Faults; i++ {
		ev := cluster.Event{At: time.Duration(rng.Intn(cfg.Ops+1)) * time.Millisecond}
		switch k := rng.Intn(100); {
		case k < 35:
			ev.Crash = []tree.SiteID{sites[rng.Intn(len(sites))]}
		case k < 55:
			target := []tree.SiteID{sites[rng.Intn(len(sites))]}
			if cfg.AntiEntropy {
				ev.RecoverSync = target
			} else {
				ev.Recover = target
			}
		case k < 65:
			if cfg.AntiEntropy {
				ev.RecoverAllSync = true
			} else {
				ev.RecoverAll = true
			}
		case k < 75 && len(sites) > 1:
			// Isolate a random non-empty strict subset from the clients and
			// the remaining sites.
			m := 1 + rng.Intn(len(sites)-1)
			perm := rng.Perm(len(sites))
			iso := make([]tree.SiteID, m)
			for j := range iso {
				iso[j] = sites[perm[j]]
			}
			sort.Slice(iso, func(a, b int) bool { return iso[a] < iso[b] })
			ev.Partition = [][]tree.SiteID{iso}
		case k < 85:
			ev.Heal = true
		default:
			ev.Restart = true
		}
		events = append(events, ev)
	}
	if cfg.Overload {
		events = append(events, buildOverloadEvents(cfg, sites, rng)...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// buildOverloadEvents derives the Config.Overload stretch: one bounded
// saturate window over a random site subset, and on half the runs a
// graceful drain with a later recovery. It draws from the tail of the
// fault rng, so turning overload on never reshuffles the base schedule.
func buildOverloadEvents(cfg Config, sites []tree.SiteID, rng *rand.Rand) []cluster.Event {
	start := rng.Intn(cfg.Ops/2 + 1)
	end := start + 1 + rng.Intn(cfg.Ops-start)
	perm := rng.Perm(len(sites))
	n := 1 + rng.Intn((len(sites)+1)/2)
	sat := make([]tree.SiteID, n)
	for i := range sat {
		sat[i] = sites[perm[i]]
	}
	sort.Slice(sat, func(a, b int) bool { return sat[a] < sat[b] })
	events := []cluster.Event{
		{At: time.Duration(start) * time.Millisecond, Saturate: sat},
		{At: time.Duration(end) * time.Millisecond, Unsaturate: sat},
	}
	if rng.Intn(2) == 0 {
		site := []tree.SiteID{sites[rng.Intn(len(sites))]}
		at := rng.Intn(cfg.Ops + 1)
		ev := cluster.Event{At: time.Duration(at) * time.Millisecond, Drain: site}
		rec := cluster.Event{At: time.Duration(at+1+rng.Intn(cfg.Ops-at+1)) * time.Millisecond}
		if cfg.AntiEntropy {
			rec.RecoverSync = site
		} else {
			rec.Recover = site
		}
		events = append(events, ev, rec)
	}
	return events
}
