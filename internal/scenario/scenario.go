// Package scenario implements the .arb scenario language: one checked-in,
// replayable text file that specifies everything a simulated experiment
// needs — the replica topology, a geographic latency matrix, the workload
// phases (including hot-key skew, flash crowds and diurnal ramps), the
// fault schedule, and the expected outcome. Parse reads the line-oriented
// syntax with the same closed-world rigor as internal/wire (unknown or
// duplicate directives are errors, every reference is validated against
// the declared tree), String renders the canonical form (parse→format→
// parse is a fixpoint, fuzz-verified), and Compile lowers the spec onto
// the deterministic chaos harness: a fully-derived sim.Input whose
// generated events are merged with the scenario's explicit fault lines. Check then judges a finished run against the expect
// assertions, so a scenarios/ corpus replays green or explains why not.
// FromInput goes the other way — a shrunk failing run written back as a
// scenario — so the .arb file is the only textual description of a run.
//
// A scenario file looks like:
//
//	scenario workload-flip
//	tree 1-8
//	seed 11
//	faults 3
//	phase mostly-read 40
//	phase mostly-write 60 zipf 1.2
//	ramp mostly-write mostly-read 80 steps 4
//	latency level 0 2ms
//	fault 35ms:crash=2+partition=3,4
//	adapt every 10
//	expect no-violations
//	expect reconfigurations >=2
//	expect final-spec 1-8
//
// A reproducer is the same language with no expect lines (any invariant
// violation then fails the replay) and the two directives only a shrunk
// run needs: keep, the op indices the shrinker retained, and bug, the
// self-test's armed defect:
//
//	tree 1-2
//	ops 4
//	bug skip-wal-replay
//	keep 0,2
//	fault 4ms:restart
//
// Blank lines are skipped and # starts a comment anywhere on a line.
package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/sim"
	"arbor/internal/tree"
)

// Spec is one parsed scenario. The zero value of every field means "not
// written in the file": String omits it and Compile falls back to the
// harness defaults, so a Spec round-trips structurally through its
// canonical rendering.
type Spec struct {
	// Name is the scenario's identifier (the scenario directive).
	Name string
	// Tree is the canonical replica-tree spec, e.g. "1-3-5". Required.
	Tree string
	// Seed drives every generator in the lowered run.
	Seed int64
	// Ops/Profile/Zipf describe a plain (unphased) workload; they conflict
	// with phase and ramp lines.
	Ops     int
	Profile sim.Profile
	Zipf    float64
	// Keys and Clients size the workload population.
	Keys    int
	Clients int
	// Faults asks the harness for that many generated fault events on top
	// of the explicit fault lines. Unset means none: a scenario injects
	// only what it declares.
	Faults int
	// Timeout and LockTTL tune the cluster.
	Timeout time.Duration
	LockTTL time.Duration
	// SkipWALReplay arms the self-test's durability defect (the bug
	// skip-wal-replay directive): restarts discard the journals.
	SkipWALReplay bool
	// AntiEntropy recovers replicas through the catch-up path and turns
	// durability-margin gaps into hard violations.
	AntiEntropy bool
	// Adapt runs the adaptation controller, stepped every AdaptEvery ops.
	Adapt      bool
	AdaptEvery int
	// Latency is the network geometry.
	Latency Latency
	// Phases is the workload timeline, in file order.
	Phases []Phase
	// Keep lists, ascending, the op indices a shrunk run retains of the
	// generated stream (ops keep their index, so write values and fault
	// ticks stay aligned). Nil keeps every op; empty ("keep -") keeps none.
	Keep []int
	// Schedule is the explicit fault schedule, the concatenation of the
	// file's fault lines in cluster.Schedule syntax.
	Schedule cluster.Schedule
	// Expects are the outcome assertions, in file order.
	Expects []Expect
}

// Latency is the scenario's network geometry: a base+jitter pair applied
// to every message, plus per-level and per-site round-trip classes that
// lower onto the transport's link-latency hook (a message to or from a
// listed site pays RTT/2 each way; site entries override level entries).
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
	// Dist names the jitter distribution (uniform, exponential, pareto).
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
// Profile for Ops operations, or (Ramp set) a diurnal ramp interpolating
// the read fraction from From to To across Steps equal slices of Ops.
type Phase struct {
	Ramp    bool
	Profile sim.Profile // plain phase
	From    sim.Profile // ramp endpoints
	To      sim.Profile
	Ops     int
	// Steps is the ramp's interpolation resolution; 0 means the compile
	// default (4, clamped to Ops).
	Steps int
	// Zipf, when > 1, skews the phase's key popularity (flash crowd).
	Zipf float64
}

func (p Phase) line() string {
	if p.Ramp {
		s := fmt.Sprintf("ramp %s %s %d", p.From, p.To, p.Ops)
		if p.Steps != 0 {
			s += fmt.Sprintf(" steps %d", p.Steps)
		}
		if p.Zipf > 1 {
			s += " zipf " + formatFloat(p.Zipf)
		}
		return s
	}
	s := fmt.Sprintf("phase %s %d", p.Profile, p.Ops)
	if p.Zipf > 1 {
		s += " zipf " + formatFloat(p.Zipf)
	}
	return s
}

// Expect is one outcome assertion. Kind is one of no-violations,
// no-history-violations, margin-gaps, adapt-decisions, reconfigurations,
// failures, sheds or final-spec. Numeric kinds compare via Cmp ("==",
// ">=", "<=") against N; sheds counts typed overload rejections from the
// replica admission gates; final-spec compares the run's ending tree
// spec.
type Expect struct {
	Kind string
	Cmp  string
	N    int
	Spec string
}

// String renders the assertion without the "expect " prefix.
func (e Expect) String() string {
	switch e.Kind {
	case "no-violations", "no-history-violations":
		return e.Kind
	case "final-spec":
		return e.Kind + " " + e.Spec
	}
	if e.Cmp == "" || e.Cmp == "==" {
		return fmt.Sprintf("%s %d", e.Kind, e.N)
	}
	return fmt.Sprintf("%s %s%d", e.Kind, e.Cmp, e.N)
}

// String renders the canonical scenario text: every set field, one
// directive per line, in fixed order. Parse(String()) reproduces the Spec
// exactly.
func (s *Spec) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", s.Name)
	}
	fmt.Fprintf(&b, "tree %s\n", s.Tree)
	if s.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", s.Seed)
	}
	if s.Ops != 0 {
		fmt.Fprintf(&b, "ops %d\n", s.Ops)
	}
	if s.Profile != "" {
		fmt.Fprintf(&b, "profile %s\n", s.Profile)
	}
	if s.Zipf != 0 {
		fmt.Fprintf(&b, "zipf %s\n", formatFloat(s.Zipf))
	}
	if s.Keys != 0 {
		fmt.Fprintf(&b, "keys %d\n", s.Keys)
	}
	if s.Clients != 0 {
		fmt.Fprintf(&b, "clients %d\n", s.Clients)
	}
	if s.Faults != 0 {
		fmt.Fprintf(&b, "faults %d\n", s.Faults)
	}
	if s.Timeout != 0 {
		fmt.Fprintf(&b, "timeout %s\n", s.Timeout)
	}
	if s.LockTTL != 0 {
		fmt.Fprintf(&b, "lockttl %s\n", s.LockTTL)
	}
	if s.SkipWALReplay {
		b.WriteString("bug skip-wal-replay\n")
	}
	if s.AntiEntropy {
		b.WriteString("antientropy\n")
	}
	if s.Adapt {
		if s.AdaptEvery != 0 {
			fmt.Fprintf(&b, "adapt every %d\n", s.AdaptEvery)
		} else {
			b.WriteString("adapt\n")
		}
	}
	if s.Latency.Base != 0 {
		fmt.Fprintf(&b, "latency base %s\n", s.Latency.Base)
	}
	if s.Latency.Jitter != 0 {
		fmt.Fprintf(&b, "latency jitter %s\n", s.Latency.Jitter)
	}
	if s.Latency.Dist != "" {
		fmt.Fprintf(&b, "latency dist %s\n", s.Latency.Dist)
	}
	for _, lv := range s.Latency.Levels {
		fmt.Fprintf(&b, "latency level %d %s\n", lv.Level, lv.RTT)
	}
	for _, sr := range s.Latency.Sites {
		fmt.Fprintf(&b, "latency site %d %s\n", sr.Site, sr.RTT)
	}
	for _, p := range s.Phases {
		b.WriteString(p.line())
		b.WriteByte('\n')
	}
	if s.Keep != nil {
		idx := make([]string, len(s.Keep))
		for i, k := range s.Keep {
			idx[i] = strconv.Itoa(k)
		}
		if len(idx) == 0 {
			idx = []string{"-"}
		}
		fmt.Fprintf(&b, "keep %s\n", strings.Join(idx, ","))
	}
	if len(s.Schedule) > 0 {
		fmt.Fprintf(&b, "fault %s\n", s.Schedule.String())
	}
	for _, e := range s.Expects {
		fmt.Fprintf(&b, "expect %s\n", e)
	}
	return b.String()
}

// Load reads and parses a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
