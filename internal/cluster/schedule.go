package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"arbor/internal/tree"
)

// Event is one timed failure-injection action.
type Event struct {
	// At is the offset from schedule start. The deterministic harness
	// (internal/sim) interprets it as a logical tick.
	At time.Duration
	// Crash lists sites to fail-stop.
	Crash []tree.SiteID
	// Recover lists sites to bring back instantly (idealized recovery:
	// immediately live, serving reads with whatever state survived).
	Recover []tree.SiteID
	// RecoverSync lists sites to bring back through the catching-up state:
	// the replica serves 2PC at once but refuses reads until its
	// anti-entropy pass has pulled every version it missed.
	RecoverSync []tree.SiteID
	// RecoverAll recovers every replica instantly.
	RecoverAll bool
	// RecoverAllSync recovers every crashed replica through the
	// catching-up state.
	RecoverAllSync bool
	// Partition splits the network into the given site groups.
	Partition [][]tree.SiteID
	// Heal removes any partition.
	Heal bool
	// Restart power-cycles the whole cluster: every replica fail-stops
	// (losing volatile lock state) and comes back with its stable storage.
	// Harnesses that own the replica processes (internal/sim) instead tear
	// the cluster down and rebuild it from the write-ahead journals.
	Restart bool
	// Saturate arms the deterministic overload fault on the sites: their
	// admission gates shed every gated request (reads, version probes,
	// prepares) with a typed overload reply until unsaturated or recovered.
	// Phase-two commits and aborts are still served.
	Saturate []tree.SiteID
	// Unsaturate disarms the overload fault on the sites.
	Unsaturate []tree.SiteID
	// SlowSite injects extra service delay into every gated request the
	// listed sites serve — a brownout. A zero delay clears the slowdown.
	SlowSite []SiteSlowdown
	// Drain gracefully removes the sites from service: new gated work is
	// shed, in-flight work and prepared transactions resolve, then the
	// replica goes down with its stable storage intact.
	Drain []tree.SiteID
	// Workload marks a workload-phase shift (e.g. "mostly-write"). The
	// cluster itself takes no action — clients generate the operations —
	// but harnesses that own the workload (internal/sim) align their phase
	// boundaries with these markers, and the name makes the shift visible
	// in rendered schedules and traces.
	Workload string
}

// SiteSlowdown is one site's injected service delay.
type SiteSlowdown struct {
	Site tree.SiteID
	By   time.Duration
}

// Schedule is a sequence of failure-injection events.
type Schedule []Event

// String renders the event in the compact syntax ParseSchedule accepts, so
// parse → format → parse is a fixpoint. A multi-action event renders every
// action it carries, joined by '+' in a fixed canonical order (the struct's
// field order), which ParseSchedule reads back into the same event.
func (ev Event) String() string {
	var b strings.Builder
	b.WriteString(ev.At.String())
	b.WriteByte(':')
	first := true
	sep := func() {
		if !first {
			b.WriteByte('+')
		}
		first = false
	}
	if len(ev.Crash) > 0 {
		sep()
		b.WriteString("crash=")
		b.WriteString(formatSites(ev.Crash))
	}
	if len(ev.Recover) > 0 {
		sep()
		b.WriteString("recover=")
		b.WriteString(formatSites(ev.Recover))
	}
	if len(ev.RecoverSync) > 0 {
		sep()
		b.WriteString("recoversync=")
		b.WriteString(formatSites(ev.RecoverSync))
	}
	if ev.RecoverAll {
		sep()
		b.WriteString("recoverall")
	}
	if ev.RecoverAllSync {
		sep()
		b.WriteString("recoverallsync")
	}
	if len(ev.Partition) > 0 {
		sep()
		b.WriteString("partition=")
		for i, g := range ev.Partition {
			if i > 0 {
				b.WriteByte('/')
			}
			b.WriteString(formatSites(g))
		}
	}
	if ev.Heal {
		sep()
		b.WriteString("heal")
	}
	if ev.Restart {
		sep()
		b.WriteString("restart")
	}
	if len(ev.Saturate) > 0 {
		sep()
		b.WriteString("saturate=")
		b.WriteString(formatSites(ev.Saturate))
	}
	if len(ev.Unsaturate) > 0 {
		sep()
		b.WriteString("unsaturate=")
		b.WriteString(formatSites(ev.Unsaturate))
	}
	if len(ev.SlowSite) > 0 {
		sep()
		b.WriteString("slowsite=")
		for i, s := range ev.SlowSite {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(s.Site)))
			b.WriteByte(':')
			b.WriteString(s.By.String())
		}
	}
	if len(ev.Drain) > 0 {
		sep()
		b.WriteString("drain=")
		b.WriteString(formatSites(ev.Drain))
	}
	if ev.Workload != "" {
		sep()
		b.WriteString("workload=")
		b.WriteString(ev.Workload)
	}
	return b.String()
}

// String renders the schedule in the compact syntax ParseSchedule accepts.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, ev := range s {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ";")
}

func formatSites(sites []tree.SiteID) string {
	var b strings.Builder
	for i, s := range sites {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(s)))
	}
	return b.String()
}

// ParseSchedule parses a compact schedule syntax: semicolon-separated
// events of the form "<offset>:<action>[+<action>...]", where offset is a
// Go duration and each action is one of
//
//	crash=<site>[,<site>...]
//	recover=<site>[,<site>...]
//	recoversync=<site>[,<site>...]
//	recoverall
//	recoverallsync
//	partition=<site>,...[/<site>,...]
//	heal
//	restart
//	saturate=<site>[,<site>...]
//	unsaturate=<site>[,<site>...]
//	slowsite=<site>:<dur>[,<site>:<dur>...]
//	drain=<site>[,<site>...]
//	workload=<name>
//
// The sync variants recover through the catching-up state with anti-entropy
// catch-up; the plain ones are instant (idealized) recovery. saturate arms
// the deterministic overload fault (the site sheds all gated work until
// unsaturate or recover), slowsite injects per-request service delay (a
// zero duration clears it) and drain gracefully removes sites from service.
// workload marks a workload-phase shift for harnesses that own the
// operation stream; the cluster takes no action on it.
//
// '+' joins several actions into one event, applied in the order the verbs
// are listed above (the order ApplyEvent uses); each action kind may
// appear at most once per event. Because '+' separates actions, a workload
// phase name may not contain it.
//
// Example: "50ms:crash=1,2;150ms:recoverall;200ms:partition=1,2/3,4;300ms:heal+workload=calm"
func ParseSchedule(s string) (Schedule, error) {
	var sched Schedule
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	for _, part := range strings.Split(s, ";") {
		offsetStr, actions, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("cluster: schedule event %q needs <offset>:<action>", part)
		}
		at, err := time.ParseDuration(strings.TrimSpace(offsetStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: schedule offset %q: %w", offsetStr, err)
		}
		ev := Event{At: at}
		seen := map[string]bool{}
		for _, action := range strings.Split(actions, "+") {
			verb, args, _ := strings.Cut(strings.TrimSpace(action), "=")
			if seen[verb] {
				return nil, fmt.Errorf("cluster: schedule event %q repeats action %q", part, verb)
			}
			seen[verb] = true
			switch verb {
			case "crash":
				if ev.Crash, err = parseSites(args); err != nil {
					return nil, err
				}
			case "recover":
				if ev.Recover, err = parseSites(args); err != nil {
					return nil, err
				}
			case "recoversync":
				if ev.RecoverSync, err = parseSites(args); err != nil {
					return nil, err
				}
			case "recoverall":
				ev.RecoverAll = true
			case "recoverallsync":
				ev.RecoverAllSync = true
			case "partition":
				for _, group := range strings.Split(args, "/") {
					sites, err := parseSites(group)
					if err != nil {
						return nil, err
					}
					ev.Partition = append(ev.Partition, sites)
				}
			case "heal":
				ev.Heal = true
			case "restart":
				ev.Restart = true
			case "saturate":
				if ev.Saturate, err = parseSites(args); err != nil {
					return nil, err
				}
			case "unsaturate":
				if ev.Unsaturate, err = parseSites(args); err != nil {
					return nil, err
				}
			case "slowsite":
				if ev.SlowSite, err = parseSlowdowns(args); err != nil {
					return nil, err
				}
			case "drain":
				if ev.Drain, err = parseSites(args); err != nil {
					return nil, err
				}
			case "workload":
				name := strings.TrimSpace(args)
				if name == "" {
					return nil, fmt.Errorf("cluster: workload event %q needs a phase name", part)
				}
				ev.Workload = name
			default:
				return nil, fmt.Errorf("cluster: unknown schedule action %q", verb)
			}
		}
		sched = append(sched, ev)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

func parseSites(s string) ([]tree.SiteID, error) {
	var out []tree.SiteID
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad site id %q", f)
		}
		out = append(out, tree.SiteID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty site list %q", s)
	}
	return out, nil
}

// parseSlowdowns parses "site:dur[,site:dur...]" slowsite arguments.
func parseSlowdowns(s string) ([]SiteSlowdown, error) {
	var out []SiteSlowdown
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		siteStr, durStr, ok := strings.Cut(f, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: slowsite entry %q needs <site>:<dur>", f)
		}
		id, err := strconv.Atoi(strings.TrimSpace(siteStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: bad site id %q", siteStr)
		}
		d, err := time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: slowsite duration %q: %w", durStr, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("cluster: slowsite duration %q is negative", durStr)
		}
		out = append(out, SiteSlowdown{Site: tree.SiteID(id), By: d})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty slowsite list %q", s)
	}
	return out, nil
}

// ApplyEvent executes one event against the cluster immediately, ignoring
// its offset. It is the hook a deterministic harness (internal/sim) uses to
// fire schedule events on its own logical clock.
func (c *Cluster) ApplyEvent(ev Event) error {
	for _, s := range ev.Crash {
		if err := c.Crash(s); err != nil {
			return err
		}
	}
	for _, s := range ev.Recover {
		if err := c.Recover(s); err != nil {
			return err
		}
	}
	for _, s := range ev.RecoverSync {
		if err := c.RecoverWithSync(s); err != nil {
			return err
		}
	}
	if ev.RecoverAll {
		c.RecoverAll()
	}
	if ev.RecoverAllSync {
		c.RecoverAllWithSync()
	}
	if len(ev.Partition) > 0 {
		if err := c.Partition(ev.Partition...); err != nil {
			return err
		}
	}
	if ev.Heal {
		if err := c.Heal(); err != nil {
			return err
		}
	}
	if ev.Restart {
		// Power-cycle: every replica fail-stops (volatile lock state is
		// lost) and immediately recovers with its stable storage.
		for _, r := range c.replicas {
			r.Crash()
		}
		c.RecoverAll()
	}
	for _, s := range ev.Saturate {
		if err := c.Saturate(s, true); err != nil {
			return err
		}
	}
	for _, s := range ev.Unsaturate {
		if err := c.Saturate(s, false); err != nil {
			return err
		}
	}
	for _, s := range ev.SlowSite {
		if err := c.SlowSite(s.Site, s.By); err != nil {
			return err
		}
	}
	for _, s := range ev.Drain {
		// A schedule-driven drain is bounded: the replica stays draining
		// (shedding new work) even if quiescence takes longer than this, and
		// its prepared transactions still resolve via commit, abort or lock
		// expiry.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := c.Drain(ctx, s)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return nil
}
