package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// Event is one timed failure-injection action.
type Event struct {
	// At is the offset from schedule start. The deterministic harness
	// (internal/sim) interprets it as a logical tick.
	At time.Duration
	// Crash lists sites to fail-stop.
	Crash []tree.SiteID
	// Recover lists sites to bring back: a crashed one replays its journal
	// and catches up, serving 2PC at once but refusing reads until its
	// catch-up has pulled every version it missed; a live one catches up
	// in place.
	Recover []tree.SiteID
	// RecoverAll recovers every crashed replica.
	RecoverAll bool
	// Partition splits the network into the given site groups.
	Partition [][]tree.SiteID
	// Heal removes any partition.
	Heal bool
	// Restart power-cycles the whole cluster: every replica crashes,
	// replays its journal from stable storage and then catches up.
	Restart bool
	// Saturate arms the deterministic overload fault on the sites: their
	// admission gates shed every gated request (reads, version probes,
	// prepares) with a typed overload reply until unsaturated, or recovered
	// after a crash. Phase-two commits and aborts are still served.
	Saturate []tree.SiteID
	// Unsaturate disarms the overload fault on the sites.
	Unsaturate []tree.SiteID
	// SlowSite injects extra service delay into every gated request the
	// listed sites serve — a brownout. A zero delay clears the slowdown.
	SlowSite []SiteSlowdown
	// Drain gracefully removes the sites from service: new gated work is
	// shed, in-flight work and prepared transactions resolve, then the
	// replica crashes, its journal intact.
	Drain []tree.SiteID
	// Reconfigure reshapes the cluster into this tree of the same replicas,
	// every one of them up: the new tree's smallest level first catches up
	// from the old tree's levels.
	Reconfigure *tree.Tree
	// Checkpoint compacts every replica's journal to one record per key
	// (replica.Store.Compact); a site that is down keeps its journal as is.
	Checkpoint bool
	// Workload marks a workload-phase shift (e.g. "mostly-write"). The
	// cluster itself takes no action on it — clients generate the
	// operations — but harnesses that own the workload (internal/sim)
	// align their phase boundaries with these markers, and the name makes
	// the shift visible in rendered schedules and traces. The event's other
	// actions apply as in any event.
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
	if ev.RecoverAll {
		sep()
		b.WriteString("recoverall")
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
	if ev.Reconfigure != nil {
		sep()
		b.WriteString("reconfigure=" + ev.Reconfigure.Spec())
	}
	if ev.Checkpoint {
		sep()
		b.WriteString("checkpoint")
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
//	recoverall
//	partition=<site>,...[/<site>,...]
//	heal
//	restart
//	saturate=<site>[,<site>...]
//	unsaturate=<site>[,<site>...]
//	slowsite=<site>:<dur>[,<site>:<dur>...]
//	drain=<site>[,<site>...]
//	reconfigure=<tree spec>
//	checkpoint
//	workload=<name>
//
// A recovery replays the site's journal and then catches up from the other
// levels; recoverall recovers every crashed site. saturate arms
// the deterministic overload fault (the site sheds all gated work until
// unsaturate or recover), slowsite injects per-request service delay (a
// zero duration clears it) and drain gracefully removes sites from service.
// reconfigure reshapes the tree. checkpoint compacts
// every journal that is up to one record per key.
// workload marks a workload-phase shift for harnesses that own the
// operation stream; the cluster takes no action on it.
//
// '+' joins several actions into one event, applied in the order the verbs
// are listed above (the order ApplyEvent uses); each action kind may
// appear at most once per event. A '+' before a digit continues the
// argument (reconfigure=1-3-5+4): no verb starts with a digit.
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
		for _, action := range splitActions(actions) {
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
			case "recoverall":
				ev.RecoverAll = true
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
			case "reconfigure":
				if ev.Reconfigure, err = tree.ParseSpec(args); err != nil {
					return nil, fmt.Errorf("cluster: reconfigure event %q: %w", part, err)
				}
			case "checkpoint":
				ev.Checkpoint = true
			case "workload":
				name := strings.TrimSpace(args)
				if name == "" {
					return nil, fmt.Errorf("cluster: workload event %q needs a phase name", part)
				}
				ev.Workload = name
			default:
				if strings.HasPrefix(verb, "recover") {
					return nil, fmt.Errorf("cluster: unknown schedule action %q: a recovery is recover=<sites> or recoverall, and it always catches up", verb)
				}
				return nil, fmt.Errorf("cluster: unknown schedule action %q", verb)
			}
		}
		sched = append(sched, ev)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// splitActions splits an event's actions at every '+' no digit follows.
func splitActions(s string) (out []string) {
	for _, p := range strings.Split(s, "+") {
		if n := len(out); n > 0 && p != "" && p[0] >= '0' && p[0] <= '9' {
			out[n-1] += "+" + p
		} else {
			out = append(out, p)
		}
	}
	return out
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
// its offset. It is the cluster's only way to change state: the
// deterministic harness (internal/sim) fires every schedule event through
// it on its own logical clock, restarts, phase markers and its final
// recovery included; arbord's /fault endpoint sends an operator's events
// through it, and the adaptation controller its migrations. Events are
// serialized: two never interleave, whoever sends them. An event the
// cluster cannot apply — one naming a site it does not have
// (ErrUnknownSite), or a partition or heal over TCP — is refused before any
// of its actions applies. ctx bounds the drains and the reconfiguration's
// migration; a drain that outlives it leaves its site draining and returns
// ctx's error.
func (c *Cluster) ApplyEvent(ctx context.Context, ev Event) error {
	if c.sim == nil && (len(ev.Partition) > 0 || ev.Heal) {
		return errNotSimulated
	}
	named := slices.Concat(ev.Crash, ev.Recover, ev.Saturate, ev.Unsaturate, ev.Drain)
	for _, s := range ev.SlowSite {
		named = append(named, s.Site)
	}
	for _, s := range named {
		if c.replicas[s] == nil {
			return fmt.Errorf("%w %d", ErrUnknownSite, s)
		}
	}
	c.admin.Lock()
	defer c.admin.Unlock()
	for _, s := range ev.Crash {
		c.replicas[s].Crash()
	}
	// A site that is down replays its journal and rejoins catching up from
	// one member of every other physical level; a site that is up runs the
	// catch-up in place (replica.Recover). AwaitSync waits for it.
	for _, s := range ev.Recover {
		c.replicas[s].Recover(c.syncPlanFor(s))
	}
	if ev.RecoverAll {
		c.recoverAll()
	}
	if len(ev.Partition) > 0 {
		// Clients not listed (all of them, usually) fall into the implicit
		// extra group.
		groups := make([][]transport.Addr, len(ev.Partition))
		for i, g := range ev.Partition {
			groups[i] = make([]transport.Addr, len(g))
			for j, s := range g {
				groups[i][j] = transport.Addr(s)
			}
		}
		c.sim.Partition(groups...)
	}
	if ev.Heal {
		c.sim.Heal()
	}
	if ev.Restart {
		// Power-cycle: every replica crashes and recovers from its journal.
		for _, r := range c.replicas {
			r.Crash()
		}
		c.recoverAll()
	}
	for _, s := range ev.Saturate {
		c.replicas[s].Saturate(true)
	}
	for _, s := range ev.Unsaturate {
		c.replicas[s].Saturate(false)
	}
	for _, s := range ev.SlowSite {
		c.replicas[s.Site].SlowBy(s.By)
	}
	// Every listed site starts draining, even past ctx's deadline; the
	// first drain that outlives it is reported.
	var errs []error
	for _, s := range ev.Drain {
		if err := c.replicas[s].Drain(ctx); err != nil && len(errs) == 0 {
			errs = append(errs, err)
		}
	}
	if ev.Reconfigure != nil {
		errs = append(errs, c.reconfigure(ctx, ev.Reconfigure))
	}
	if ev.Checkpoint {
		// A replica that is down, or still replaying its journal, keeps its
		// journal as it is; one whose compaction fails keeps its old one.
		for _, site := range c.Tree().Sites() {
			if err := c.replicas[site].Store().Compact(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: checkpoint site %d: %w", site, err))
			}
		}
	}
	return errors.Join(errs...)
}

// recoverAll recovers every crashed replica.
func (c *Cluster) recoverAll() {
	for site, r := range c.replicas {
		if r.Health() == replica.HealthDown {
			r.Recover(c.syncPlanFor(site))
		}
	}
}
