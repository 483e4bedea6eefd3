package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"arbor/internal/sim"
	"arbor/internal/tree"
)

// defaultRampSteps is the interpolation resolution for ramps that don't
// say "steps" (clamped to the ramp's op count).
const defaultRampSteps = 4

// Compile lowers the spec onto the chaos harness: the fully-derived input
// (its Cfg the effective configuration, defaults applied) that sim.Execute
// runs and Spec.Check judges. Workload phases become sim phase specs (ramps
// expand into interpolated numeric-profile steps), the latency matrix
// becomes a per-site RTT map over the tree's physical levels, and the
// explicit fault lines merge tick-ordered with whatever the faults
// directive asked the harness to generate. Without a faults directive the
// run injects only the scenario's own events. A keep list masks the
// generated op stream last, so the kept ops carry their original indices.
func (s *Spec) Compile() (sim.Input, error) {
	tr, err := tree.ParseSpec(s.Tree)
	if err != nil {
		return sim.Input{}, fmt.Errorf("scenario: %w", err)
	}
	cfg := sim.Config{
		Spec:          s.Tree,
		Seed:          s.Seed,
		Profile:       s.Profile,
		Zipf:          s.Zipf,
		Ops:           s.Ops,
		Clients:       s.Clients,
		Keys:          s.Keys,
		Timeout:       s.Timeout,
		LockTTL:       s.LockTTL,
		SkipWALReplay: s.SkipWALReplay,
		AntiEntropy:   s.AntiEntropy,
		Adapt:         s.Adapt,
		AdaptEvery:    s.AdaptEvery,
		Latency:       s.Latency.Base,
		Jitter:        s.Latency.Jitter,
		JitterDist:    s.Latency.Dist,
		Faults:        -1,
	}
	if s.Faults > 0 {
		cfg.Faults = s.Faults
	}
	phases, err := expandPhases(s.Phases)
	if err != nil {
		return sim.Input{}, err
	}
	cfg.Phases = phases
	if len(s.Latency.Levels)+len(s.Latency.Sites) > 0 {
		rtt := make(map[tree.SiteID]time.Duration)
		phys := tr.PhysicalLevels()
		for _, lv := range s.Latency.Levels {
			for _, site := range tr.LevelSites(phys[lv.Level]) {
				rtt[site] = lv.RTT
			}
		}
		for _, sr := range s.Latency.Sites {
			rtt[sr.Site] = sr.RTT
		}
		cfg.SiteRTT = rtt
	}
	in, err := sim.BuildInput(cfg)
	if err != nil {
		return sim.Input{}, fmt.Errorf("scenario: %w", err)
	}
	if len(s.Schedule) > 0 {
		in.Events = append(in.Events, s.Schedule...)
		sort.SliceStable(in.Events, func(i, j int) bool { return in.Events[i].At < in.Events[j].At })
	}
	if s.Keep != nil {
		kept := make([]sim.OpSpec, len(s.Keep))
		for i, k := range s.Keep {
			kept[i] = in.Ops[k]
		}
		in.Ops = kept
	}
	return in, nil
}

// FromInput writes a fully-determined run — one BuildInput, Compile or
// Shrink produced — back as a scenario, the form a shrunk failure is saved
// and replayed in: Compile of the result (also after String and Parse)
// rebuilds the same ops and the same events. Every fault becomes an
// explicit fault line with faults unset, a shorter op list a keep line;
// the workload= phase markers are left out because BuildInput derives them
// from the phases again. There are no expect lines: replaying a scenario
// without any fails on every invariant violation.
func FromInput(in sim.Input) *Spec {
	cfg := in.Cfg
	s := &Spec{
		Tree:          cfg.Spec,
		Seed:          cfg.Seed,
		Keys:          cfg.Keys,
		Clients:       cfg.Clients,
		Timeout:       cfg.Timeout,
		LockTTL:       cfg.LockTTL,
		SkipWALReplay: cfg.SkipWALReplay,
		AntiEntropy:   cfg.AntiEntropy,
		Adapt:         cfg.Adapt,
		Latency:       Latency{Base: cfg.Latency, Jitter: cfg.Jitter, Dist: cfg.JitterDist},
	}
	if tr, err := tree.ParseSpec(cfg.Spec); err == nil {
		s.Tree = tr.Spec() // -spec may have been given in a non-canonical form
	}
	if cfg.Adapt {
		s.AdaptEvery = cfg.AdaptEvery
	}
	for site, rtt := range cfg.SiteRTT {
		s.Latency.Sites = append(s.Latency.Sites, SiteRTT{Site: site, RTT: rtt})
	}
	sort.Slice(s.Latency.Sites, func(i, j int) bool { return s.Latency.Sites[i].Site < s.Latency.Sites[j].Site })
	for _, p := range cfg.Phases {
		if p.Profile == "" {
			p.Profile = sim.ProfileBalanced
		}
		s.Phases = append(s.Phases, Phase{Profile: p.Profile, Ops: p.Ops, Zipf: p.Zipf})
	}
	if len(cfg.Phases) == 0 {
		s.Ops, s.Profile, s.Zipf = cfg.Ops, cfg.Profile, cfg.Zipf
	}
	if len(in.Ops) != cfg.Ops {
		s.Keep = make([]int, len(in.Ops))
		for i, op := range in.Ops {
			s.Keep[i] = op.Index
		}
	}
	for _, ev := range in.Events {
		if !sim.IsMarker(ev) {
			s.Schedule = append(s.Schedule, ev)
		}
	}
	return s
}

// expandPhases lowers the workload timeline. Plain phases map one-to-one;
// a ramp becomes Steps consecutive phases whose read fractions
// interpolate linearly from the From profile's to the To profile's, the
// ramp's ops split as evenly as possible (earlier steps absorb the
// remainder).
func expandPhases(phases []Phase) ([]sim.PhaseSpec, error) {
	var out []sim.PhaseSpec
	for _, p := range phases {
		if !p.Ramp {
			out = append(out, sim.PhaseSpec{Profile: p.Profile, Ops: p.Ops, Zipf: p.Zipf})
			continue
		}
		from, err := p.From.ReadFraction()
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		to, err := p.To.ReadFraction()
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		steps := p.Steps
		if steps == 0 {
			steps = defaultRampSteps
			if p.Ops < steps {
				steps = p.Ops
			}
		}
		base, rem := p.Ops/steps, p.Ops%steps
		for i := 0; i < steps; i++ {
			f := from
			if steps > 1 {
				f = from + (to-from)*float64(i)/float64(steps-1)
			}
			ops := base
			if i < rem {
				ops++
			}
			out = append(out, sim.PhaseSpec{
				Profile: sim.NumericProfile(roundFraction(f)),
				Ops:     ops,
				Zipf:    p.Zipf,
			})
		}
	}
	return out, nil
}

// roundFraction keeps interpolated read fractions short and stable when
// they render into numeric profiles and reproducers.
func roundFraction(f float64) float64 { return math.Round(f*1e4) / 1e4 }

// historyRules are history.Check's rule names, as opposed to the harness
// invariants; expect no-history-violations filters on them.
var historyRules = map[string]bool{
	"unique-writes":    true,
	"value-integrity":  true,
	"future-read":      true,
	"read-your-writes": true,
	"monotonic-writes": true,
	"monotonic-reads":  true,
}

// Check evaluates the scenario's expect assertions against a finished
// run. It returns one message per unmet expectation; an empty slice means
// the scenario replayed green.
func (s *Spec) Check(res *sim.Result) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	for _, e := range s.Expects {
		switch e.Kind {
		case "no-violations":
			if len(res.Violations) > 0 {
				failf("expect no-violations: got %d (first: %v)", len(res.Violations), res.Violations[0])
			}
		case "no-history-violations":
			n, first := 0, sim.Violation{}
			for _, v := range res.Violations {
				if historyRules[v.Rule] {
					if n == 0 {
						first = v
					}
					n++
				}
			}
			if n > 0 {
				failf("expect no-history-violations: got %d (first: %v)", n, first)
			}
		case "margin-gaps":
			checkCount(e, len(res.MarginGaps), failf)
		case "adapt-decisions":
			checkCount(e, len(res.AdaptDecisions), failf)
		case "reconfigurations":
			checkCount(e, res.Reconfigurations, failf)
		case "failures":
			checkCount(e, res.Failures, failf)
		case "sheds":
			checkCount(e, int(res.Sheds), failf)
		case "final-spec":
			if res.FinalSpec != e.Spec {
				failf("expect final-spec %s: got %s", e.Spec, res.FinalSpec)
			}
		}
	}
	return fails
}

func checkCount(e Expect, got int, failf func(string, ...any)) {
	ok := false
	switch e.Cmp {
	case ">=":
		ok = got >= e.N
	case "<=":
		ok = got <= e.N
	default:
		ok = got == e.N
	}
	if !ok {
		failf("expect %s: got %d", e, got)
	}
}
