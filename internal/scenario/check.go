package scenario

import (
	"fmt"

	"arbor/internal/sim"
)

// FromInput writes a fully-determined run — one sim.BuildInput or
// sim.Shrink produced — back as a scenario, the form a shrunk failure is
// saved and replayed in: sim.BuildInput of the result (also after String
// and Parse) rebuilds the same ops and the same events. The effective spec
// is written whole; every event becomes an explicit fault line, with
// generation (faults, overload) off, and a shorter op list a keep line.
// The workload= phase markers are left out because BuildInput derives them
// from the phases again. There are no expect lines: replaying a scenario
// without any fails on every invariant violation.
func FromInput(in sim.Input) *Spec {
	s := &Spec{Spec: in.Spec}
	s.Faults, s.Overload = 0, false
	if len(in.Ops) != s.TotalOps() {
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
