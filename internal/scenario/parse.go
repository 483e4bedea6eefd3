package scenario

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/sim"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// expectKinds lists the assertion vocabulary; the bool marks numeric
// kinds (those taking a count like 0, >=1 or <=3).
var expectKinds = map[string]bool{
	"no-violations":         false,
	"no-history-violations": false,
	"adapt-decisions":       true,
	"reconfigurations":      true,
	"failures":              true,
	"sheds":                 true,
	"final-spec":            false,
}

// Parse reads the scenario syntax described in the package comment. The
// grammar is closed-world: unknown directives, duplicate scalar
// directives, malformed arguments and references to sites or levels the
// declared tree does not have are all errors, with the offending line
// number in the message.
func Parse(text string) (*Spec, error) {
	s := &Spec{}
	seen := map[string]bool{}
	seenExpect := map[string]bool{}
	ln := 0
	errf := func(format string, args ...any) error {
		return fmt.Errorf("scenario: line %d: %s", ln, fmt.Sprintf(format, args...))
	}
	once := func(name string) error {
		if seen[name] {
			return errf("duplicate %s directive", name)
		}
		seen[name] = true
		return nil
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ln++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "scenario":
			if err := once("scenario"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("scenario needs a name")
			}
			if !validName(f[1]) {
				return nil, errf("scenario name %q may use letters, digits, dots, dashes and underscores", f[1])
			}
			s.Name = f[1]
		case "tree":
			if err := once("tree"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("tree needs a spec like 1-3-5")
			}
			tr, err := tree.ParseSpec(f[1])
			if err != nil {
				return nil, errf("tree: %v", err)
			}
			s.Tree = tr.Spec()
		case "seed":
			if err := once("seed"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("seed needs an integer")
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, errf("seed needs an integer, not %q", f[1])
			}
			s.Seed = v
		case "ops":
			if err := parsePositiveInt(f, &s.Ops, once, errf); err != nil {
				return nil, err
			}
		case "keys":
			if err := parsePositiveInt(f, &s.Keys, once, errf); err != nil {
				return nil, err
			}
		case "clients":
			if err := parsePositiveInt(f, &s.Clients, once, errf); err != nil {
				return nil, err
			}
		case "faults":
			if err := parsePositiveInt(f, &s.Faults, once, errf); err != nil {
				return nil, err
			}
		case "profile":
			if err := once("profile"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("profile needs a name")
			}
			p := sim.Profile(f[1])
			if _, err := p.ReadFraction(); err != nil {
				return nil, errf("profile: %v", err)
			}
			s.Profile = p
		case "zipf":
			if err := once("zipf"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("zipf needs a skew > 1")
			}
			z, err := strconv.ParseFloat(f[1], 64)
			if err != nil || z <= 1 {
				return nil, errf("zipf needs a skew > 1, not %q", f[1])
			}
			s.Zipf = z
		case "timeout":
			if err := parsePositiveDuration(f, &s.Timeout, once, errf); err != nil {
				return nil, err
			}
		case "lockttl":
			if err := parsePositiveDuration(f, &s.LockTTL, once, errf); err != nil {
				return nil, err
			}
		case "bug":
			if err := once("bug"); err != nil {
				return nil, err
			}
			if len(f) != 2 || f[1] != "skip-wal-replay" {
				return nil, errf("bug needs a known defect name (skip-wal-replay)")
			}
			s.SkipWALReplay = true
		case "keep":
			if err := once("keep"); err != nil {
				return nil, err
			}
			if len(f) != 2 {
				return nil, errf("keep needs op indices like 0,3,7 (or - for none)")
			}
			s.Keep = []int{}
			if f[1] == "-" {
				break
			}
			for _, tok := range strings.Split(f[1], ",") {
				k, err := strconv.Atoi(tok)
				if err != nil || k < 0 {
					return nil, errf("keep needs op indices like 0,3,7 (or - for none), not %q", f[1])
				}
				if n := len(s.Keep); n > 0 && k <= s.Keep[n-1] {
					return nil, errf("keep indices must be ascending and unique: %d after %d", k, s.Keep[n-1])
				}
				s.Keep = append(s.Keep, k)
			}
		case "overload":
			if err := once("overload"); err != nil {
				return nil, err
			}
			if len(f) != 1 {
				return nil, errf("overload takes no argument")
			}
			s.Overload = true
		case "adapt":
			if err := once("adapt"); err != nil {
				return nil, err
			}
			switch {
			case len(f) == 1:
				s.Adapt = true
			case len(f) == 3 && f[1] == "every":
				n, err := strconv.Atoi(f[2])
				if err != nil || n <= 0 {
					return nil, errf("adapt every needs a positive op stride, not %q", f[2])
				}
				s.Adapt = true
				s.AdaptEvery = n
			default:
				return nil, errf(`adapt takes no argument or "every <ops>"`)
			}
		case "latency":
			if err := parseLatency(f, s, seen, errf); err != nil {
				return nil, err
			}
		case "phase":
			p, err := parsePhase(f, errf)
			if err != nil {
				return nil, err
			}
			s.Phases = append(s.Phases, p)
		case "ramp":
			p, err := parseRamp(f, errf)
			if err != nil {
				return nil, err
			}
			s.Phases = append(s.Phases, p)
		case "fault":
			if len(f) != 2 {
				return nil, errf("fault needs one schedule token like 10ms:crash=2;20ms:heal")
			}
			sched, err := cluster.ParseSchedule(f[1])
			if err != nil {
				return nil, errf("fault: %v", err)
			}
			s.Schedule = append(s.Schedule, sched...)
		case "expect":
			e, err := parseExpect(f, errf)
			if err != nil {
				return nil, err
			}
			if seenExpect[e.Kind] {
				return nil, errf("duplicate expect %s", e.Kind)
			}
			seenExpect[e.Kind] = true
			s.Expects = append(s.Expects, e)
		default:
			return nil, errf("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func validName(name string) bool {
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return name != ""
}

func parsePositiveInt(f []string, dst *int, once func(string) error, errf func(string, ...any) error) error {
	if err := once(f[0]); err != nil {
		return err
	}
	if len(f) != 2 {
		return errf("%s needs a positive count", f[0])
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n <= 0 {
		return errf("%s needs a positive count, not %q", f[0], f[1])
	}
	*dst = n
	return nil
}

func parsePositiveDuration(f []string, dst *time.Duration, once func(string) error, errf func(string, ...any) error) error {
	if err := once(f[0]); err != nil {
		return err
	}
	if len(f) != 2 {
		return errf("%s needs a positive duration", f[0])
	}
	d, err := time.ParseDuration(f[1])
	if err != nil || d <= 0 {
		return errf("%s needs a positive duration, not %q", f[0], f[1])
	}
	*dst = d
	return nil
}

func parseLatency(f []string, s *Spec, seen map[string]bool, errf func(string, ...any) error) error {
	if len(f) < 2 {
		return errf("latency needs a subdirective: base, jitter, dist, level or site")
	}
	dup := func(key string) error {
		if seen[key] {
			return errf("duplicate latency %s directive", strings.TrimPrefix(key, "latency "))
		}
		seen[key] = true
		return nil
	}
	switch f[1] {
	case "base", "jitter":
		if err := dup("latency " + f[1]); err != nil {
			return err
		}
		if len(f) != 3 {
			return errf("latency %s needs a positive duration", f[1])
		}
		d, err := time.ParseDuration(f[2])
		if err != nil || d <= 0 {
			return errf("latency %s needs a positive duration, not %q", f[1], f[2])
		}
		if f[1] == "base" {
			s.Latency.Base = d
		} else {
			s.Latency.Jitter = d
		}
	case "dist":
		if err := dup("latency dist"); err != nil {
			return err
		}
		if len(f) != 3 {
			return errf("latency dist needs a distribution name")
		}
		if _, err := transport.ParseJitterDist(f[2]); err != nil {
			return errf("latency dist: %v", err)
		}
		s.Latency.Dist = f[2]
	case "level":
		if len(f) != 4 {
			return errf("latency level needs <level> <rtt>")
		}
		lv, err := strconv.Atoi(f[2])
		if err != nil || lv < 0 {
			return errf("latency level needs a level index >= 0, not %q", f[2])
		}
		if err := dup("latency level " + f[2]); err != nil {
			return err
		}
		d, err := time.ParseDuration(f[3])
		if err != nil || d <= 0 {
			return errf("latency level %d needs a positive rtt, not %q", lv, f[3])
		}
		s.Latency.Levels = append(s.Latency.Levels, sim.LevelRTT{Level: lv, RTT: d})
	case "site":
		if len(f) != 4 {
			return errf("latency site needs <site> <rtt>")
		}
		site, err := strconv.Atoi(f[2])
		if err != nil || site <= 0 {
			return errf("latency site needs a site id, not %q", f[2])
		}
		if err := dup("latency site " + f[2]); err != nil {
			return err
		}
		d, err := time.ParseDuration(f[3])
		if err != nil || d <= 0 {
			return errf("latency site %d needs a positive rtt, not %q", site, f[3])
		}
		s.Latency.Sites = append(s.Latency.Sites, sim.SiteRTT{Site: tree.SiteID(site), RTT: d})
	default:
		return errf("unknown latency subdirective %q (want base, jitter, dist, level or site)", f[1])
	}
	return nil
}

func parsePhase(f []string, errf func(string, ...any) error) (sim.Phase, error) {
	if len(f) != 3 && !(len(f) == 5 && f[3] == "zipf") {
		return sim.Phase{}, errf("phase needs <profile> <ops> [zipf <s>]")
	}
	p := sim.Phase{Profile: sim.Profile(f[1])}
	if _, err := p.Profile.ReadFraction(); err != nil {
		return sim.Phase{}, errf("phase: %v", err)
	}
	ops, err := strconv.Atoi(f[2])
	if err != nil || ops <= 0 {
		return sim.Phase{}, errf("phase needs a positive op count, not %q", f[2])
	}
	p.Ops = ops
	if len(f) == 5 {
		z, err := strconv.ParseFloat(f[4], 64)
		if err != nil || z <= 1 {
			return sim.Phase{}, errf("phase zipf needs a skew > 1, not %q", f[4])
		}
		p.Zipf = z
	}
	return p, nil
}

func parseRamp(f []string, errf func(string, ...any) error) (sim.Phase, error) {
	p := sim.Phase{Ramp: true}
	if len(f) < 4 {
		return sim.Phase{}, errf("ramp needs <from> <to> <ops> [steps <n>] [zipf <s>]")
	}
	p.From, p.To = sim.Profile(f[1]), sim.Profile(f[2])
	for _, prof := range []sim.Profile{p.From, p.To} {
		if _, err := prof.ReadFraction(); err != nil {
			return sim.Phase{}, errf("ramp: %v", err)
		}
	}
	ops, err := strconv.Atoi(f[3])
	if err != nil || ops < 2 {
		return sim.Phase{}, errf("ramp needs an op count >= 2, not %q", f[3])
	}
	p.Ops = ops
	rest := f[4:]
	if len(rest) >= 2 && rest[0] == "steps" {
		n, err := strconv.Atoi(rest[1])
		if err != nil || n < 2 {
			return sim.Phase{}, errf("ramp steps needs a count >= 2, not %q", rest[1])
		}
		if n > p.Ops {
			return sim.Phase{}, errf("ramp steps %d exceeds its %d ops", n, p.Ops)
		}
		p.Steps = n
		rest = rest[2:]
	}
	if len(rest) >= 2 && rest[0] == "zipf" {
		z, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || z <= 1 {
			return sim.Phase{}, errf("ramp zipf needs a skew > 1, not %q", rest[1])
		}
		p.Zipf = z
		rest = rest[2:]
	}
	if len(rest) != 0 {
		return sim.Phase{}, errf("ramp needs <from> <to> <ops> [steps <n>] [zipf <s>]")
	}
	return p, nil
}

func parseExpect(f []string, errf func(string, ...any) error) (Expect, error) {
	if len(f) < 2 {
		return Expect{}, errf("expect needs an assertion")
	}
	kind := f[1]
	numeric, ok := expectKinds[kind]
	if !ok {
		return Expect{}, errf("unknown expect %q (want no-violations, no-history-violations, adapt-decisions, reconfigurations, failures, sheds or final-spec)", kind)
	}
	e := Expect{Kind: kind}
	switch {
	case kind == "final-spec":
		if len(f) != 3 {
			return Expect{}, errf("expect final-spec needs a tree spec")
		}
		tr, err := tree.ParseSpec(f[2])
		if err != nil {
			return Expect{}, errf("expect final-spec: %v", err)
		}
		e.Spec = tr.Spec()
	case !numeric:
		if len(f) != 2 {
			return Expect{}, errf("expect %s takes no argument", kind)
		}
	default:
		if len(f) != 3 {
			return Expect{}, errf("expect %s needs a count like 0, >=1 or <=3", kind)
		}
		e.Cmp, e.N = "==", 0
		num := f[2]
		if rest, ok := strings.CutPrefix(num, ">="); ok {
			e.Cmp, num = ">=", rest
		} else if rest, ok := strings.CutPrefix(num, "<="); ok {
			e.Cmp, num = "<=", rest
		}
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			return Expect{}, errf("expect %s needs a count like 0, >=1 or <=3, not %q", kind, f[2])
		}
		e.N = n
	}
	return e, nil
}

// validate cross-checks the whole spec once every line is read.
func (s *Spec) validate() error {
	if s.Tree == "" {
		return fmt.Errorf("scenario: missing tree directive")
	}
	tr, err := tree.ParseSpec(s.Tree)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Ops == 0 && len(s.Phases) == 0 {
		return fmt.Errorf("scenario: missing workload: add ops or phase/ramp lines")
	}
	if len(s.Phases) > 0 && (s.Ops != 0 || s.Profile != "" || s.Zipf != 0) {
		return fmt.Errorf("scenario: ops, profile and zipf conflict with phase/ramp lines (phases define the workload)")
	}
	ops := s.TotalOps()
	if n := len(s.Keep); n > 0 && s.Keep[n-1] >= ops {
		return fmt.Errorf("scenario: keep index %d: the workload has ops 0..%d", s.Keep[n-1], ops-1)
	}
	if s.Latency.Dist != "" && s.Latency.Jitter == 0 {
		return fmt.Errorf("scenario: latency dist needs latency jitter")
	}
	// Canonical order: latency classes sorted, fault events time-ordered
	// even when they came from several fault lines.
	sort.SliceStable(s.Schedule, func(i, j int) bool { return s.Schedule[i].At < s.Schedule[j].At })
	sort.Slice(s.Latency.Levels, func(i, j int) bool { return s.Latency.Levels[i].Level < s.Latency.Levels[j].Level })
	sort.Slice(s.Latency.Sites, func(i, j int) bool { return s.Latency.Sites[i].Site < s.Latency.Sites[j].Site })
	for _, lv := range s.Latency.Levels {
		if lv.Level >= tr.NumPhysicalLevels() {
			return fmt.Errorf("scenario: latency level %d: tree %s has physical levels 0..%d",
				lv.Level, s.Tree, tr.NumPhysicalLevels()-1)
		}
	}
	for _, sr := range s.Latency.Sites {
		if tr.SiteNode(sr.Site) == nil {
			return fmt.Errorf("scenario: latency site %d: no such site in tree %s", sr.Site, s.Tree)
		}
	}
	for _, ev := range s.Schedule {
		for _, group := range [][]tree.SiteID{ev.Crash, ev.Recover, ev.Saturate, ev.Unsaturate, ev.Drain} {
			for _, site := range group {
				if tr.SiteNode(site) == nil {
					return fmt.Errorf("scenario: fault schedule references site %d, not in tree %s", site, s.Tree)
				}
			}
		}
		for _, sl := range ev.SlowSite {
			if tr.SiteNode(sl.Site) == nil {
				return fmt.Errorf("scenario: fault schedule references site %d, not in tree %s", sl.Site, s.Tree)
			}
		}
		for _, group := range ev.Partition {
			for _, site := range group {
				if tr.SiteNode(site) == nil {
					return fmt.Errorf("scenario: fault schedule references site %d, not in tree %s", site, s.Tree)
				}
			}
		}
	}
	for _, e := range s.Expects {
		if (e.Kind == "adapt-decisions" || e.Kind == "reconfigurations") && !s.Adapt {
			return fmt.Errorf("scenario: expect %s requires adapt", e.Kind)
		}
	}
	return nil
}
