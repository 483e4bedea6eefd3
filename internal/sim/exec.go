package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/core"
	"arbor/internal/history"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// world owns the run's one cluster and its clients. Every replica journals
// to a file under dir; a restart is cluster.ApplyEvent's power-cycle, so
// every replica replays its journal there and then catches up. The
// injected SkipWALReplay bug empties the journals a restart or a recovery
// of a crashed site would replay, simulating journals that were never
// replayed.
type world struct {
	spec    Spec
	dir     string
	cluster *cluster.Cluster
	clients []*client.Client
}

func (w *world) build() error {
	tr, err := tree.ParseSpec(w.spec.Tree)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	lat := w.spec.Latency
	dist, err := transport.ParseJitterDist(lat.Dist)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	cfg := cluster.Config{
		Net:           transport.NetConfig{Latency: lat.Base, Jitter: lat.Jitter, JitterDist: dist},
		Seed:          w.spec.Seed,
		ClientTimeout: w.spec.Timeout,
		LockTTL:       w.spec.LockTTL,
		WALDir:        w.dir,
	}
	if len(lat.Levels)+len(lat.Sites) > 0 {
		// Geo model: a message to or from site s pays rtt[s]/2 each way, so
		// a link between two listed sites costs the mean of their RTT
		// classes; clients and unlisted sites pay nothing. The map is
		// read-only after build, so the link fn is safe for concurrent use.
		rtt, err := siteRTT(tr, lat)
		if err != nil {
			return err
		}
		cfg.Net.LinkLatency = func(from, to transport.Addr) time.Duration {
			return rtt[tree.SiteID(from)]/2 + rtt[tree.SiteID(to)]/2
		}
	}
	c, err := cluster.New(tr, cfg)
	if err != nil {
		return err
	}
	w.cluster = c
	for i := 0; i < w.spec.Clients; i++ {
		// Hedged backup probes are off under simulation: whether the hedge
		// fires (and which site ends up serving) depends on host timing,
		// which would break trace determinism and leak into the per-site
		// participation counters the adaptation controller journals.
		cli, err := c.NewClient(client.WithHedging(false))
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cli)
	}
	return nil
}

// siteRTT lowers the latency matrix onto the tree's sites: a level's class
// applies to every site on it, and a site entry overrides it.
func siteRTT(tr *tree.Tree, lat Latency) (map[tree.SiteID]time.Duration, error) {
	rtt := make(map[tree.SiteID]time.Duration)
	phys := tr.PhysicalLevels()
	for _, lv := range lat.Levels {
		if lv.Level < 0 || lv.Level >= len(phys) {
			return nil, fmt.Errorf("sim: latency level %d: tree %s has physical levels 0..%d", lv.Level, tr.Spec(), len(phys)-1)
		}
		for _, site := range tr.LevelSites(phys[lv.Level]) {
			rtt[site] = lv.RTT
		}
	}
	for _, sr := range lat.Sites {
		rtt[sr.Site] = sr.RTT
	}
	return rtt, nil
}

// skipReplay is the SkipWALReplay bug: it empties the journal of every
// site the event power-cycles, and of every crashed site it recovers.
func (w *world) skipReplay(ev cluster.Event) error {
	for _, site := range w.cluster.Tree().Sites() {
		recovered := ev.RecoverAll || slices.Contains(ev.Recover, site)
		if ev.Restart || recovered && w.cluster.Replica(site).Crashed() {
			if err := os.Truncate(filepath.Join(w.dir, fmt.Sprintf("site-%d.wal", site)), 0); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
	}
	return nil
}

// apply sends one event to the cluster through cluster.ApplyEvent, the one
// path every fault, restart and phase marker takes, and waits for the
// catch-ups it starts. An event the cluster refuses — a reconfigure= while
// a site is down, say — is an outcome of the run, not a harness error: it
// becomes a trace line naming the error, and the run goes on.
func (w *world) apply(res *Result, ev cluster.Event) error {
	if w.spec.SkipWALReplay {
		if err := w.skipReplay(ev); err != nil {
			return err
		}
	}
	// Drains are bounded: past 5 s a draining site stays draining (shedding
	// new work) and its prepared transactions still resolve via commit,
	// abort or lock expiry, so that is no refusal.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := w.cluster.ApplyEvent(ctx, ev)
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		res.Trace = append(res.Trace, "     ! refused: "+err.Error())
	}
	// Catch-up runs to completion before the next operation, so the
	// op-by-op trace stays a pure function of the Input (a read racing a
	// catching-up replica would otherwise depend on host timing). Every
	// event is awaited: a heal or a recovery can unblock a catch-up that an
	// earlier fault held up. A catch-up blocked by the fault schedule
	// (cluster.AwaitSync) is not waited for; a blown bound is a violation.
	ctx, cancel = context.WithTimeout(context.Background(), syncBound)
	defer cancel()
	if err := w.cluster.AwaitSync(ctx); err != nil {
		res.Violations = append(res.Violations, Violation{
			Rule:   "catch-up-bound",
			Detail: fmt.Sprintf("%s: catch-up did not converge within %s", ev, syncBound),
		})
	}
	return nil
}

// Execute runs one fully-determined input and checks every invariant.
// Operations run sequentially; fault events fire between operations, when
// no request is in flight, which is what makes the client-visible trace a
// pure function of the Input.
func Execute(in Input) (*Result, error) {
	spec := in.Spec
	dir, err := os.MkdirTemp("", "arborsim-*")
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer os.RemoveAll(dir)
	w := &world{spec: spec, dir: dir}
	if err := w.build(); err != nil {
		return nil, err
	}
	defer w.cluster.Close()

	res := &Result{}
	res.Violations = append(res.Violations, structuralViolations(w.cluster.Protocol())...)

	// With adaptation on, the controller lives alongside the cluster and is
	// stepped between operations on its logical clock. The knobs are
	// tightened for simulation scale: a short window and cooldown (both on
	// that clock) so phased runs of tens of operations actually cross the
	// hysteresis threshold. No wall clock is involved anywhere, so
	// controller decisions are a pure function of the op stream and fault
	// schedule.
	var ctl *adapt.Controller
	if spec.Adapt {
		cfg := adapt.DefaultConfig()
		cfg.Interval, cfg.Window, cfg.Cooldown, cfg.Enabled = time.Second, 3, 5*time.Second, true
		if ctl, err = adapt.New(w.cluster, cfg); err != nil {
			return nil, err
		}
	}

	events := append([]cluster.Event(nil), in.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	ei := 0
	applyUpTo := func(tick int) error {
		for ei < len(events) && tickOf(events[ei]) <= tick {
			ev := events[ei]
			ei++
			res.Trace = append(res.Trace, "     ! "+ev.String())
			if err := w.apply(res, ev); err != nil {
				return err
			}
			res.FaultsApplied++
		}
		return nil
	}

	// The history carries a logical clock: op i occupies the half-open
	// interval [2i, 2i+1] microseconds past the epoch. Sequential execution
	// makes every pair strictly ordered, exactly what really happened.
	base := time.Unix(0, 0)
	rec := history.NewRecorder()
	ctx := context.Background()
	// stepAdapt advances the controller once every AdaptEvery completed
	// operations. Migrations and reverts land in the trace (holds would
	// drown it), and every successful reconfiguration re-checks the
	// quorum-structure invariants on the new tree.
	stepAdapt := func() {
		if ctl == nil || res.OpsRun%spec.AdaptEvery != 0 {
			return
		}
		d, ok := ctl.Step()
		if !ok {
			return
		}
		if d.Action == adapt.ActionMigrate || d.Action == adapt.ActionRevert {
			res.Trace = append(res.Trace, "     @ "+d.String())
			if d.Outcome == "ok" {
				res.Violations = append(res.Violations, structuralViolations(w.cluster.Protocol())...)
			}
		}
	}
	for _, op := range in.Ops {
		if err := applyUpTo(op.Index); err != nil {
			return nil, err
		}
		ci := op.Index % len(w.clients)
		cli := w.clients[ci]
		start := base.Add(time.Duration(2*op.Index) * time.Microsecond)
		end := start.Add(time.Microsecond)
		res.OpsRun++
		if op.Read {
			res.Reads++
			rd, err := cli.Read(ctx, op.Key)
			switch {
			case err == nil:
				rec.Record(history.Op{
					Kind: history.Read, Key: op.Key, Value: string(rd.Value),
					TS: rd.TS, Found: true, Start: start, End: end, Client: ci,
				})
				res.Trace = append(res.Trace, fmt.Sprintf("%4d r %s -> %s=%q", op.Index, op.Key, rd.TS, rd.Value))
			case errors.Is(err, client.ErrNotFound):
				rec.Record(history.Op{
					Kind: history.Read, Key: op.Key,
					Start: start, End: end, Client: ci,
				})
				res.Trace = append(res.Trace, fmt.Sprintf("%4d r %s -> notfound", op.Index, op.Key))
			case errors.Is(err, client.ErrOverloaded):
				// A shed is a clean typed refusal: the op failed without
				// touching any replica state, so it carries no history
				// obligation — like unavailable, but distinguishable.
				res.Failures++
				res.Overloaded++
				res.Trace = append(res.Trace, fmt.Sprintf("%4d r %s -> overloaded", op.Index, op.Key))
			default:
				res.Failures++
				res.Trace = append(res.Trace, fmt.Sprintf("%4d r %s -> unavailable", op.Index, op.Key))
			}
			stepAdapt()
			continue
		}
		res.Writes++
		wr, err := cli.Write(ctx, op.Key, []byte(op.Value))
		switch {
		case err == nil:
			rec.Record(history.Op{
				Kind: history.Write, Key: op.Key, Value: op.Value,
				TS: wr.TS, Found: true, Start: start, End: end, Client: ci,
			})
			res.Trace = append(res.Trace, fmt.Sprintf("%4d w %s=%q -> %s", op.Index, op.Key, op.Value, wr.TS))
		case errors.Is(err, client.ErrInDoubt):
			rec.Record(history.Op{
				Kind: history.Write, Key: op.Key, Value: op.Value,
				TS: wr.TS, Found: true, Start: start, End: end, Client: ci,
				InDoubt: true,
			})
			res.Trace = append(res.Trace, fmt.Sprintf("%4d w %s=%q -> indoubt %s", op.Index, op.Key, op.Value, wr.TS))
		case errors.Is(err, client.ErrOverloaded):
			// The write never prepared anywhere it wasn't aborted: a shed is
			// a clean failure, never in doubt.
			res.Failures++
			res.Overloaded++
			res.Trace = append(res.Trace, fmt.Sprintf("%4d w %s=%q -> overloaded", op.Index, op.Key, op.Value))
		default:
			res.Failures++
			res.Trace = append(res.Trace, fmt.Sprintf("%4d w %s=%q -> unavailable", op.Index, op.Key, op.Value))
		}
		stepAdapt()
	}
	if err := applyUpTo(math.MaxInt); err != nil {
		return nil, err
	}
	if ctl != nil {
		res.AdaptDecisions = ctl.Journal(0)
		res.Reconfigurations = int(ctl.Reconfigurations())
	}
	for _, site := range w.cluster.Tree().Sites() {
		res.Sheds += w.cluster.Replica(site).Stats().Sheds
	}

	// Full recovery, then judge the run: every site recovers or syncs in
	// place, and the per-level durability margin is an invariant. Overload
	// faults are disarmed and the network healed first, so no catch-up is
	// blocked and the bound is strict here, and the final durability reads
	// judge the protocol, not a dangling saturate or slowsite the schedule
	// never cleared. (Drained sites are down and recover like the others.)
	// Both steps are events on the one path, left out of the trace.
	sites := w.cluster.Tree().Sites()
	calm := cluster.Event{Heal: true, Unsaturate: sites}
	for _, site := range sites {
		calm.SlowSite = append(calm.SlowSite, cluster.SiteSlowdown{Site: site})
	}
	for _, ev := range []cluster.Event{calm, {Recover: sites}} {
		if err := w.apply(res, ev); err != nil {
			return nil, err
		}
	}
	res.FinalSpec = w.cluster.Tree().Spec()
	ops := rec.Ops()
	for _, v := range history.Check(ops) {
		res.Violations = append(res.Violations, Violation{Rule: v.Rule, Detail: v.Detail})
	}
	res.Violations = append(res.Violations, durabilityViolations(ctx, w, ops)...)
	for _, g := range marginGaps(w, ops) {
		res.Violations = append(res.Violations, Violation{Rule: "durability-margin", Detail: g})
	}
	return res, nil
}

// structuralViolations checks the quorum-intersection argument the protocol
// rests on: every physical level is non-empty (a write quorum is all of one
// level and a read quorum takes one site from each, so any read quorum
// intersects any write quorum), and the levels partition the sites.
func structuralViolations(p *core.Protocol) []Violation {
	var out []Violation
	seen := make(map[tree.SiteID]int)
	for u := 0; u < p.NumPhysicalLevels(); u++ {
		sites := p.LevelSites(u)
		if len(sites) == 0 {
			out = append(out, Violation{
				Rule:   "quorum-intersection",
				Detail: fmt.Sprintf("physical level %d has no sites; read quorums cannot intersect writes at it", u),
			})
		}
		for _, s := range sites {
			if prev, ok := seen[s]; ok {
				out = append(out, Violation{
					Rule:   "level-partition",
					Detail: fmt.Sprintf("site %d appears at physical levels %d and %d; levels must partition the sites", s, prev, u),
				})
			}
			seen[s] = u
		}
	}
	return out
}

// acked is the newest plainly-acknowledged write observed for one key.
type acked struct {
	ts  replica.Timestamp
	val string
}

// newestAcked extracts, per key, the newest write the history plainly
// acknowledged. In-doubt writes are exempt everywhere — the protocol never
// promised them.
func newestAcked(ops []history.Op) (best map[string]acked, keys []string) {
	best = make(map[string]acked)
	for _, op := range ops {
		if op.Kind != history.Write || op.InDoubt {
			continue
		}
		if cur, ok := best[op.Key]; !ok || op.TS.After(cur.ts) {
			best[op.Key] = acked{ts: op.TS, val: op.Value}
		}
	}
	keys = make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return best, keys
}

// marginGaps inspects every replica's store directly and reports each
// (key, physical level) pair where no member of the level holds a version
// at least as new as the newest acknowledged write. Reads would still
// intersect some level that has the version, but each gapped level is one
// the system could not afford to lose: after every site has replayed its
// journal and caught up, there must be none.
func marginGaps(w *world, ops []history.Op) []string {
	best, keys := newestAcked(ops)
	proto := w.cluster.Protocol()
	var out []string
	for _, key := range keys {
		want := best[key]
		for u := 0; u < proto.NumPhysicalLevels(); u++ {
			holds := false
			for _, site := range proto.LevelSites(u) {
				ts, found := w.cluster.Replica(site).Store().Version(key)
				if found && !want.ts.After(ts) {
					holds = true
					break
				}
			}
			if !holds {
				out = append(out, fmt.Sprintf("key %q: level %d misses acknowledged write %s", key, u, want.ts))
			}
		}
	}
	return out
}

// durabilityViolations re-reads, after every site has recovered and the
// network healed, each key some write was plainly acknowledged on: the read
// must succeed and observe a timestamp at least as new as the newest
// acknowledged write.
func durabilityViolations(ctx context.Context, w *world, ops []history.Op) []Violation {
	best, keys := newestAcked(ops)
	var out []Violation
	cli := w.clients[0]
	for _, key := range keys {
		want := best[key]
		rd, err := cli.Read(ctx, key)
		switch {
		case err != nil:
			out = append(out, Violation{
				Rule:   "durability",
				Detail: fmt.Sprintf("key %q: post-recovery read failed (%v); acknowledged write %s=%q is lost", key, err, want.ts, want.val),
			})
		case want.ts.After(rd.TS):
			out = append(out, Violation{
				Rule:   "durability",
				Detail: fmt.Sprintf("key %q: post-recovery read observed %s, older than acknowledged write %s=%q", key, rd.TS, want.ts, want.val),
			})
		case rd.TS == want.ts && string(rd.Value) != want.val:
			out = append(out, Violation{
				Rule:   "durability",
				Detail: fmt.Sprintf("key %q: post-recovery read %s=%q, but the acknowledged write installed %q", key, rd.TS, rd.Value, want.val),
			})
		}
	}
	return out
}
