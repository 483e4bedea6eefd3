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

// NumericProfile renders a read fraction as the canonical numeric profile.
func NumericProfile(readFraction float64) Profile {
	return Profile("r" + strconv.FormatFloat(readFraction, 'g', -1, 64))
}

// Config parameterizes one simulated run. Everything a run does derives
// deterministically from these fields.
type Config struct {
	// Spec is the replica tree, e.g. "1-3-5" (default).
	Spec string
	// Seed drives the workload and fault generators and the cluster's
	// internal randomness.
	Seed int64
	// Profile shapes the read/write mix (default balanced).
	Profile Profile
	// Zipf, when > 1, skews the plain workload's key popularity with a
	// Zipf distribution of that parameter (hot keys). Phased runs carry
	// the skew per phase instead.
	Zipf float64
	// Ops is the number of client operations per run (default 60).
	Ops int
	// Faults is the number of fault events injected per run (default 6;
	// negative injects none, for fault-free adaptation runs).
	Faults int
	// Clients is the number of protocol clients ops rotate over (default 2).
	Clients int
	// Keys is the key-population size (default 4).
	Keys int
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
	// SyncBound caps how long any single catch-up may take before the run
	// records a catch-up-bound violation (default 5s).
	SyncBound time.Duration
	// Phases splits the op stream into consecutive workload phases — e.g. a
	// read-heavy stretch flipping to write-heavy mid-run, the scenario the
	// adaptation controller exists for. When set, Ops is derived as the
	// phase total (overriding any explicit value), Profile is ignored, and
	// BuildInput adds a workload= marker event at each phase boundary so
	// the shift is visible in traces and rendered schedules.
	Phases []PhaseSpec
	// Overload adds a derived overload stretch to the generated fault
	// schedule: a saturate window over a random subset of sites (closed by
	// a matching unsaturate) and, some runs, a graceful drain with a later
	// recovery. Sheds are clean typed refusals, so campaigns with overload
	// on still demand zero history violations — the axis checks that load
	// shedding composes with crashes, partitions and migrations.
	Overload bool
	// Adapt runs the adaptation controller during the run: it is stepped
	// deterministically every AdaptEvery operations on a logical clock, so
	// live reconfigurations interleave with the chaos schedule and the
	// history checker judges one-copy semantics across migrations.
	Adapt bool
	// AdaptEvery is the op stride between controller steps (default 10).
	AdaptEvery int
	// Latency and Jitter add per-message delivery delay in the simulated
	// network; JitterDist names the random component's distribution
	// (uniform, exponential or pareto — transport.ParseJitterDist). The
	// draws come from the cluster's seeded RNG, but delivery itself is
	// wall-clock timers: keep delays well below Timeout or operations
	// will time out, and expect trace determinism only while the margin
	// between delay and Timeout is generous.
	Latency    time.Duration
	Jitter     time.Duration
	JitterDist string
	// SiteRTT adds per-site geographic delay: a message to or from site s
	// pays SiteRTT[s]/2 each way (clients and unlisted sites pay none).
	// Scenario latency matrices lower onto it.
	SiteRTT map[tree.SiteID]time.Duration
}

// PhaseSpec is one workload phase: a profile, how many operations it
// lasts, and an optional hot-key skew.
type PhaseSpec struct {
	Profile Profile
	Ops     int
	// Zipf, when > 1, skews the phase's key popularity with a Zipf
	// distribution of that parameter — the flash-crowd ingredient.
	Zipf float64
}

// ParsePhases parses the compact phase syntax
// "profile:ops[:zipf<s>][,profile:ops[:zipf<s>]...]", e.g.
// "mostly-read:30,mostly-write:30" or "balanced:20:zipf1.4".
func ParsePhases(s string) ([]PhaseSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []PhaseSpec
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
		ps := PhaseSpec{Profile: p, Ops: ops}
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

func (c Config) withDefaults() Config {
	if c.Spec == "" {
		c.Spec = "1-3-5"
	}
	if c.Profile == "" {
		c.Profile = ProfileBalanced
	}
	if c.Ops == 0 {
		c.Ops = 60
	}
	if c.Faults == 0 {
		c.Faults = 6
	}
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.Keys == 0 {
		c.Keys = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 40 * time.Millisecond
	}
	if c.LockTTL == 0 {
		c.LockTTL = time.Second
	}
	if c.SyncBound == 0 {
		c.SyncBound = 5 * time.Second
	}
	if len(c.Phases) > 0 {
		total := 0
		for _, p := range c.Phases {
			total += p.Ops
		}
		c.Ops = total
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = 10
	}
	return c
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

// Input is a fully-determined run: the configuration plus the concrete op
// stream and fault events derived from it (or shrunk from a failure).
// Events use cluster.Event with At encoding the logical tick: an event at
// tick t fires after op t-1 completes and before op t starts, with one
// millisecond per tick, so the schedule serializes through
// cluster.Schedule's textual syntax.
type Input struct {
	Cfg    Config
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
// recover-with-sync did not converge within Config.SyncBound) or
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
	// controller, but its decisions are kept). Nil without Config.Adapt.
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
