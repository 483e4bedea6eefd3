package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/tree"
	"arbor/internal/workload"
)

// faultSeedSalt decorrelates the fault stream from the workload stream so
// the two generators don't mirror each other at small seeds.
const faultSeedSalt = 0x5deece66d

// BuildInput derives the run's concrete op stream and fault schedule from
// the spec, and returns them with the effective spec, every default
// applied. The same Spec always yields the same Input.
func BuildInput(spec Spec) (Input, error) {
	spec = spec.withDefaults()
	tr, err := tree.ParseSpec(spec.Tree)
	if err != nil {
		return Input{}, fmt.Errorf("sim: %w", err)
	}
	spec.Tree = tr.Spec()
	phases, err := spec.timeline()
	if err != nil {
		return Input{}, err
	}
	ops, err := buildOps(spec, phases)
	if err != nil {
		return Input{}, err
	}
	// Markers sort ahead of the faults of their tick, generated or
	// explicit. A plain workload is one phase but declares none, so it has
	// no marker.
	var events []cluster.Event
	if len(spec.Phases) > 0 {
		events = phaseMarkers(phases)
	}
	events = append(events, buildEvents(spec, tr.Sites(), len(ops))...)
	events = append(events, spec.Schedule...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if spec.Keep != nil {
		kept := make([]OpSpec, len(spec.Keep))
		for i, k := range spec.Keep {
			if k < 0 || k >= len(ops) {
				return Input{}, fmt.Errorf("sim: keep index %d: the workload has ops 0..%d", k, len(ops)-1)
			}
			kept[i] = ops[k]
		}
		ops = kept
	}
	spec.Keep, spec.Schedule = nil, nil
	return Input{Spec: spec, Ops: ops, Events: events}, nil
}

// timeline lowers the workload onto plain phases. A plain workload is its
// one phase; a ramp becomes Steps consecutive phases whose read fractions
// interpolate linearly from the From profile's to the To profile's, the
// ramp's ops split as evenly as possible (earlier steps absorb the
// remainder).
func (s Spec) timeline() ([]Phase, error) {
	if len(s.Phases) == 0 {
		return []Phase{{Profile: s.Profile, Ops: s.Ops, Zipf: s.Zipf}}, nil
	}
	var out []Phase
	for _, p := range s.Phases {
		if !p.Ramp {
			out = append(out, p)
			continue
		}
		from, err := p.From.ReadFraction()
		if err != nil {
			return nil, err
		}
		to, err := p.To.ReadFraction()
		if err != nil {
			return nil, err
		}
		if p.Steps <= 0 {
			return nil, fmt.Errorf("sim: ramp of %d ops in %d steps", p.Ops, p.Steps)
		}
		base, rem := p.Ops/p.Steps, p.Ops%p.Steps
		for i := 0; i < p.Steps; i++ {
			f := from
			if p.Steps > 1 {
				f = from + (to-from)*float64(i)/float64(p.Steps-1)
			}
			// Rounded, so interpolated fractions render short and stable.
			f = math.Round(f*1e4) / 1e4
			ops := base
			if i < rem {
				ops++
			}
			out = append(out, Phase{Profile: Profile("r" + strconv.FormatFloat(f, 'g', -1, 64)), Ops: ops, Zipf: p.Zipf})
		}
	}
	return out, nil
}

// phaseMarkers derives the workload= marker events from the lowered
// phases: one at each phase's first tick. The markers carry no cluster
// action — the op stream itself is generated phase-aware — but they make
// the shift visible in traces and keep the schedule self-describing. The
// op stream deliberately does NOT depend on these events, and a run written
// out as a scenario leaves them out: BuildInput derives them again on
// replay.
func phaseMarkers(phases []Phase) []cluster.Event {
	out := make([]cluster.Event, len(phases))
	tick := 0
	for i, p := range phases {
		out[i] = cluster.Event{At: time.Duration(tick) * time.Millisecond, Workload: string(p.Profile)}
		tick += p.Ops
	}
	return out
}

// IsMarker reports whether ev is a bare workload= marker: trace-only, no
// cluster action.
func IsMarker(ev cluster.Event) bool {
	return ev.Workload != "" && ev.String() == cluster.Event{At: ev.At, Workload: ev.Workload}.String()
}

// buildOps generates the full operation stream. Write values encode the
// seed and op index, so they are reconstructible from a reproducer's
// keep list without shipping payloads. Each phase draws from its own
// profile, with a per-phase salted seed so consecutive phases don't mirror
// each other's key picks; a plain workload is the one phase it lowers to.
func buildOps(spec Spec, phases []Phase) ([]OpSpec, error) {
	wp := make([]workload.Phase, len(phases))
	for i, p := range phases {
		rf, err := p.Profile.ReadFraction()
		if err != nil {
			return nil, err
		}
		wp[i] = workload.Phase{
			Config: workload.Config{ReadFraction: rf, Keys: spec.Keys, ZipfS: p.Zipf, Seed: spec.Seed + int64(i)},
			Ops:    p.Ops,
		}
	}
	gen, err := workload.NewPhasedGenerator(wp)
	if err != nil {
		return nil, fmt.Errorf("sim: workload: %w", err)
	}
	ops := make([]OpSpec, gen.TotalOps())
	for i := range ops {
		op := gen.Next()
		ops[i] = OpSpec{Index: i, Read: op.IsRead, Key: op.Key}
		if !op.IsRead {
			ops[i].Value = fmt.Sprintf("s%d.%d", spec.Seed, i)
		}
	}
	return ops, nil
}

// buildEvents generates the fault schedule: spec.Faults events at ticks in
// [0, n] for a run of n ops, each drawn from a weighted mix of crash, recover,
// recover-all, partition, heal and whole-cluster restart. Quick recoveries
// outweigh crashes slightly less than half the time, so runs spend real
// stretches degraded without starving the workload entirely.
func buildEvents(spec Spec, sites []tree.SiteID, n int) []cluster.Event {
	rng := rand.New(rand.NewSource(spec.Seed ^ faultSeedSalt))
	var events []cluster.Event
	for i := 0; i < spec.Faults; i++ {
		ev := cluster.Event{At: time.Duration(rng.Intn(n+1)) * time.Millisecond}
		switch k := rng.Intn(100); {
		case k < 35:
			ev.Crash = []tree.SiteID{sites[rng.Intn(len(sites))]}
		case k < 55:
			ev.Recover = []tree.SiteID{sites[rng.Intn(len(sites))]}
		case k < 65:
			ev.RecoverAll = true
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
	if spec.Overload {
		events = append(events, buildOverloadEvents(sites, n, rng)...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// buildOverloadEvents derives the Spec.Overload stretch: one bounded
// saturate window over a random site subset, and on half the runs a
// graceful drain with a later recovery. It draws from the tail of the
// fault rng, so turning overload on never reshuffles the base schedule.
func buildOverloadEvents(sites []tree.SiteID, ops int, rng *rand.Rand) []cluster.Event {
	start := rng.Intn(ops/2 + 1)
	end := start + 1 + rng.Intn(ops-start)
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
		at := rng.Intn(ops + 1)
		ev := cluster.Event{At: time.Duration(at) * time.Millisecond, Drain: site}
		rec := cluster.Event{At: time.Duration(at+1+rng.Intn(ops-at+1)) * time.Millisecond, Recover: site}
		events = append(events, ev, rec)
	}
	return events
}
