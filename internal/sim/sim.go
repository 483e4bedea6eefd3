// Package sim is a deterministic chaos-simulation harness for the
// tree-structured replica control protocol. A campaign derives, from a
// single seed, a stream of client operations interleaved with fault events
// (crashes, recoveries, partitions, whole-cluster restarts) and executes
// them against a real cluster — actual replicas, transport and protocol
// clients — recording every client-visible outcome. After each run the
// harness checks the recorded history against one-copy semantics
// (history.Check) and two protocol invariants: no acknowledged write may be
// lost once every site has recovered, and the physical levels must
// partition the sites so every read quorum intersects every write quorum.
//
// Determinism is by construction rather than by instrumentation: operations
// execute sequentially, faults fire only on the boundaries between
// operations (at logical ticks equal to operation indices), and the
// recorded history uses a logical clock, so a given Input replays the same
// op-by-op trace every time. When a run fails, a delta-debugging shrinker
// (Shrink) minimizes first the fault schedule and then the workload, and
// internal/scenario writes the result as a .arb file that cmd/arborsim
// replays.
package sim

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/cluster"
	"arbor/internal/tree"
)

// Profile names a workload mix.
type Profile string

// Workload profiles.
const (
	// ProfileBalanced issues reads and writes with equal probability.
	ProfileBalanced Profile = "balanced"
	// ProfileMostlyRead issues 90% reads.
	ProfileMostlyRead Profile = "mostly-read"
	// ProfileMostlyWrite issues 10% reads.
	ProfileMostlyWrite Profile = "mostly-write"
)

// ReadFraction maps the profile to the generator's read probability. The
// empty profile means balanced. Beyond the three named mixes, a numeric
// profile "r<fraction>" (e.g. "r0.7") names an arbitrary read fraction —
// the form scenario ramps lower their interpolated steps into.
func (p Profile) ReadFraction() (float64, error) {
	switch p {
	case "", ProfileBalanced:
		return 0.5, nil
	case ProfileMostlyRead:
		return 0.9, nil
	case ProfileMostlyWrite:
		return 0.1, nil
	}
	if rest, ok := strings.CutPrefix(string(p), "r"); ok {
		f, err := strconv.ParseFloat(rest, 64)
		if err == nil && f >= 0 && f <= 1 {
			return f, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown profile %q (want mostly-read, mostly-write, balanced or r<fraction>)", string(p))
}

// Spec describes one simulated run; everything a run does derives
// deterministically from it. It is what a .arb scenario file says
// (internal/scenario reads and writes it) and what cmd/arborsim's flags
// fill. A zero field is unset: BuildInput applies the defaults once, and
// the Input it returns carries the effective Spec.
type Spec struct {
	// Tree is the replica tree, e.g. "1-3-5" (default).
	Tree string
	// Seed drives the workload and fault generators and the cluster's
	// internal randomness.
	Seed int64
	// Ops, Profile and Zipf describe a plain workload: Ops operations
	// (default 60) of one read/write mix (default balanced), with key
	// popularity Zipf-skewed when Zipf > 1. Phases, when set, define the
	// workload instead and these three are ignored.
	Ops     int
	Profile Profile
	Zipf    float64
	// Keys is the key-population size (default 4).
	Keys int
	// Clients is the number of protocol clients ops rotate over (default 2).
	Clients int
	// Faults is the number of fault events generated on top of Schedule;
	// zero generates none.
	Faults int
	// Timeout is the clients' failure-detection deadline (default 40ms).
	// Smaller is faster but risks spurious timeouts on loaded machines.
	Timeout time.Duration
	// LockTTL is the replicas' prepared-lock expiry (default 1s).
	LockTTL time.Duration
	// SkipWALReplay injects a durability bug for self-tests: every Restart
	// event discards the write-ahead journals instead of replaying them,
	// which a campaign must detect as a lost acknowledged write.
	SkipWALReplay bool
	// AntiEntropy switches recovery to the catch-up path: generated recover
	// events become recover-with-sync (the replica rejoins through the
	// catching-up state and pulls missed versions before serving reads),
	// and the end-of-run durability margin — every level holding the newest
	// acknowledged version of every key — is enforced as an invariant.
	// Without it, recovery is instant and margin gaps are only reported.
	AntiEntropy bool
	// Overload adds a generated overload stretch to the fault schedule: a
	// saturate window over a random subset of sites (closed by a matching
	// unsaturate) and, some runs, a graceful drain with a later recovery.
	// Sheds are clean typed refusals, so campaigns with overload on still
	// demand zero history violations — the axis checks that load shedding
	// composes with crashes, partitions and migrations.
	Overload bool
	// Adapt runs the adaptation controller during the run: it is stepped
	// deterministically every AdaptEvery operations (default 10) on a
	// logical clock, so live reconfigurations interleave with the chaos
	// schedule and the history checker judges one-copy semantics across
	// migrations.
	Adapt      bool
	AdaptEvery int
	// Latency is the simulated network's geometry.
	Latency Latency
	// Phases splits the op stream into consecutive workload phases — e.g. a
	// read-heavy stretch flipping to write-heavy mid-run, the scenario the
	// adaptation controller exists for. BuildInput adds a workload= marker
	// event at each phase boundary so the shift is visible in traces.
	Phases []Phase
	// Keep lists, ascending, the op indices a shrunk run retains of the
	// generated stream (ops keep their index, so write values and fault
	// ticks stay aligned). Nil keeps every op; empty keeps none.
	Keep []int
	// Schedule is the explicit fault schedule, merged tick-ordered with the
	// generated events.
	Schedule cluster.Schedule
}

// Latency is the network geometry: a base+jitter pair applied to every
// message, plus per-level and per-site round-trip classes (a message to or
// from a listed site pays RTT/2 each way; site entries override level
// entries). The draws come from the cluster's seeded RNG, but delivery
// itself is wall-clock timers: keep delays well below Timeout or
// operations will time out, and expect trace determinism only while the
// margin between delay and Timeout is generous.
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
	// Dist names the jitter distribution (uniform, exponential or pareto —
	// transport.ParseJitterDist).
	Dist string
	// Levels holds per-physical-level RTT classes, ascending by level.
	Levels []LevelRTT
	// Sites holds per-site RTT overrides, ascending by site.
	Sites []SiteRTT
}

// LevelRTT assigns one RTT class to every site of physical level Level
// (0-based over the tree's physical levels, root side first).
type LevelRTT struct {
	Level int
	RTT   time.Duration
}

// SiteRTT assigns an RTT class to a single site.
type SiteRTT struct {
	Site tree.SiteID
	RTT  time.Duration
}

// Phase is one workload timeline entry: either a plain phase drawing from
// Profile (default balanced) for Ops operations, or (Ramp set) a diurnal
// ramp interpolating the read fraction from From to To across Steps equal
// slices of Ops.
type Phase struct {
	Ramp    bool
	Profile Profile // plain phase
	From    Profile // ramp endpoints
	To      Profile
	Ops     int
	// Steps is the ramp's interpolation resolution (default 4, clamped to
	// Ops).
	Steps int
	// Zipf, when > 1, skews the phase's key popularity with a Zipf
	// distribution of that parameter — the flash-crowd ingredient.
	Zipf float64
}

// defaultRampSteps is the interpolation resolution for ramps that don't
// set Steps (clamped to the ramp's op count).
const defaultRampSteps = 4

// syncBound caps how long any single catch-up may take before the run
// records a catch-up-bound violation.
const syncBound = 5 * time.Second

// ParsePhases parses the compact phase syntax
// "profile:ops[:zipf<s>][,profile:ops[:zipf<s>]...]", e.g.
// "mostly-read:30,mostly-write:30" or "balanced:20:zipf1.4".
func ParsePhases(s string) ([]Phase, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Phase
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("sim: phase %q needs profile:ops[:zipf<s>]", part)
		}
		p := Profile(strings.TrimSpace(fields[0]))
		if _, err := p.ReadFraction(); err != nil {
			return nil, err
		}
		ops, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil || ops <= 0 {
			return nil, fmt.Errorf("sim: phase %q needs a positive op count", part)
		}
		ps := Phase{Profile: p, Ops: ops}
		if len(fields) == 3 {
			zs, ok := strings.CutPrefix(strings.TrimSpace(fields[2]), "zipf")
			if !ok {
				return nil, fmt.Errorf("sim: phase %q: third field must be zipf<s>", part)
			}
			z, err := strconv.ParseFloat(zs, 64)
			if err != nil || z <= 1 {
				return nil, fmt.Errorf("sim: phase %q: zipf skew must be a number > 1", part)
			}
			ps.Zipf = z
		}
		out = append(out, ps)
	}
	return out, nil
}

// TotalOps is the length of the generated op stream: the phases' total, or
// Ops for a plain workload.
func (s Spec) TotalOps() int {
	if len(s.Phases) == 0 {
		return s.Ops
	}
	n := 0
	for _, p := range s.Phases {
		n += p.Ops
	}
	return n
}

func (s Spec) withDefaults() Spec {
	if s.Tree == "" {
		s.Tree = "1-3-5"
	}
	if len(s.Phases) > 0 {
		s.Ops, s.Profile, s.Zipf = 0, "", 0
	} else {
		if s.Ops == 0 {
			s.Ops = 60
		}
		if s.Profile == "" {
			s.Profile = ProfileBalanced
		}
	}
	if s.Keys == 0 {
		s.Keys = 4
	}
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.Timeout == 0 {
		s.Timeout = 40 * time.Millisecond
	}
	if s.LockTTL == 0 {
		s.LockTTL = time.Second
	}
	if s.AdaptEvery == 0 {
		s.AdaptEvery = 10
	}
	s.Phases = append([]Phase(nil), s.Phases...) // the caller's stay as they are
	for i, p := range s.Phases {
		switch {
		case p.Ramp && p.Steps == 0:
			s.Phases[i].Steps = min(defaultRampSteps, p.Ops)
		case !p.Ramp && p.Profile == "":
			s.Phases[i].Profile = ProfileBalanced
		}
	}
	return s
}

// OpSpec is one pre-generated client operation. Index is the op's position
// in the full generated stream; it survives shrinking, so fault ticks and
// generated values stay aligned when ops are removed around it.
type OpSpec struct {
	Index int
	Read  bool
	Key   string
	// Value is the payload a write installs (unused for reads).
	Value string
}

// Input is a fully-determined run: the effective spec plus the concrete op
// stream and fault events derived from it (or shrunk from a failure). The
// spec's Keep and Schedule are folded into Ops and Events, and left nil, so
// the run has one copy of each. Events use cluster.Event with At encoding the logical tick: an event at
// tick t fires after op t-1 completes and before op t starts, with one
// millisecond per tick, so the schedule serializes through
// cluster.Schedule's textual syntax.
type Input struct {
	Spec   Spec
	Ops    []OpSpec
	Events []cluster.Event
}

// tickOf decodes an event's logical tick from its offset.
func tickOf(ev cluster.Event) int { return int(ev.At / time.Millisecond) }

// Violation is one invariant failure found by a run. Rule is either one of
// history.Check's rules or a harness invariant: "durability" (an
// acknowledged write unreadable or stale after full recovery),
// "quorum-intersection" (a physical level with no sites),
// "level-partition" (a site on two physical levels), "catch-up-bound" (a
// recover-with-sync did not converge within syncBound) or
// "durability-margin" (with anti-entropy on, a physical level that does not
// hold the newest acknowledged version of some key after convergence).
type Violation struct {
	Rule   string
	Detail string
}

// Error renders the violation.
func (v Violation) Error() string { return fmt.Sprintf("sim: %s: %s", v.Rule, v.Detail) }

// Result is the outcome of executing one Input.
type Result struct {
	// Trace is the deterministic op-by-op log: one line per operation and
	// per applied fault event. Two executions of the same Input produce
	// identical traces.
	Trace []string
	// Violations lists every invariant failure; empty means the run passed.
	Violations []Violation
	// MarginGaps lists, for runs WITHOUT anti-entropy, the (key, level)
	// pairs where a physical level ended the run missing the newest
	// acknowledged version. Instant recovery makes such gaps expected (the
	// protocol stays correct — reads still intersect a level that has the
	// version — but the durability margin is thinner); with anti-entropy on
	// the same gaps are hard durability-margin violations instead.
	MarginGaps []string
	// AdaptDecisions is the adaptation controller's decision journal,
	// accumulated across cluster incarnations (a Restart rebuilds the
	// controller, but its decisions are kept). Nil without Spec.Adapt.
	AdaptDecisions []adapt.Decision
	// Reconfigurations counts the controller-driven migrations that
	// succeeded during the run (reverts included).
	Reconfigurations int
	// FinalSpec is the replica tree's spec at the end of the run — the
	// starting spec unless the adaptation controller migrated. Scenario
	// `expect final-spec` assertions check it.
	FinalSpec string
	// Counters.
	OpsRun        int
	Reads         int
	Writes        int
	Failures      int // ops that returned unavailable (no history obligation)
	FaultsApplied int
	// Sheds counts the requests replicas answered with a typed overload
	// reply (admission-gate load shedding), accumulated across cluster
	// incarnations. Zero unless the schedule armed an overload fault
	// (saturate/drain) or genuinely exceeded a replica's admission limits.
	Sheds uint64
	// Overloaded counts the operations (a subset of Failures) that failed
	// with every candidate shedding — a clean, typed refusal, never an
	// in-doubt outcome, so it carries no history obligation.
	Overloaded int
}

// Failed reports whether the run violated any invariant.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }
