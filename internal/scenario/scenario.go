// Package scenario implements the .arb scenario language: one checked-in,
// replayable text file that specifies everything a simulated experiment
// needs — the replica topology, a geographic latency matrix, the workload
// phases (including hot-key skew, flash crowds and diurnal ramps), the
// fault schedule, and the expected outcome. Parse reads the line-oriented
// syntax with the same closed-world rigor as internal/wire (unknown or
// duplicate directives are errors, every reference is validated against
// the declared tree), and String renders the canonical form (parse→format→
// parse is a fixpoint, fuzz-verified). What a file describes is a sim.Spec,
// the harness's one run type, which sim.BuildInput turns into a
// fully-derived run; a scenario adds only its name and its expect lines.
// Check judges a finished run against the expect assertions, so a
// scenarios/ corpus replays green or explains why not. FromInput goes the
// other way — a shrunk failing run written back as a scenario — so the
// .arb file is the only textual description of a run.
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

	"arbor/internal/sim"
)

// Spec is one parsed scenario: a named run description plus the outcome
// it expects. The zero value of every run field means "not written in the
// file": String omits it and sim.BuildInput falls back to the harness
// defaults, so a Spec round-trips structurally through its canonical
// rendering.
type Spec struct {
	// Name is the scenario's identifier (the scenario directive).
	Name string
	// Spec is the run. Tree is required; ops/profile/zipf conflict with
	// phase and ramp lines, and faults asks for generated fault events on
	// top of the explicit fault lines (unset means none: a scenario
	// injects only what it declares).
	sim.Spec
	// Expects are the outcome assertions, in file order.
	Expects []Expect
}

func phaseLine(p sim.Phase) string {
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
// no-history-violations, adapt-decisions, reconfigurations, failures,
// sheds or final-spec. Numeric kinds compare via Cmp ("==",
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
	if s.Overload {
		b.WriteString("overload\n")
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
		b.WriteString(phaseLine(p))
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
