// Package adapt closes the loop between the observability layer and the
// paper's reconfiguration capability: a controller continuously samples the
// measured read/write mix, the per-site participation deltas and the live
// Eq 3.2 theory-vs-empirical gap, and when the workload has drifted past a
// hysteresis threshold for a full observation window it asks the
// configuration advisor for a better tree and drives a live Reconfigure
// migration — with a cooldown between migrations and an abort-on-degradation
// guard that reverts a migration whose measured load got worse.
//
// Every evaluation, whether it acts or holds, appends a Decision carrying
// the full evidence snapshot to a bounded journal, so "why did the tree
// change shape at 14:02" is answered from data rather than guesswork. The
// package is deterministic by construction: it never reads the wall clock
// or global randomness (a clock is injected; the default advances logically
// by one interval per Step), so the chaos-simulation harness can replay
// controller decisions bit-for-bit.
package adapt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/config"
	"arbor/internal/core"
	"arbor/internal/tree"
)

// Defaults for the controller knobs, and its two fixed parameters.
const (
	DefaultInterval      = time.Second
	DefaultWindow        = 5
	DefaultMinLevelDelta = 2
	DefaultCooldown      = 30 * time.Second
	DefaultAvailability  = 0.9
	// MinWindowOps is the minimum operations a window must contain to
	// count as signal; quieter windows always hold.
	MinWindowOps = 20
	// JournalCap bounds the decision journal.
	JournalCap = 256
	// DefaultDegradeTolerance is how much worse (fractionally) the windowed
	// weighted empirical load may get after a migration before the guard
	// reverts it; windowed maxima are noisy, so the bar is generous.
	DefaultDegradeTolerance = 0.5
)

// Config configures a Controller. Every field is taken as given, so start
// from DefaultConfig: a zero Cooldown, DegradeTolerance or Enabled is a
// setting, not a request for the default.
type Config struct {
	// Interval is the Run loop's evaluation period and the logical clock's
	// per-step advance.
	Interval time.Duration
	// Window is the observation window length in samples: both how many
	// ticks of evidence a decision aggregates and how many consecutive
	// drifted ticks the hysteresis demands before acting.
	Window int
	// MinLevelDelta is how many physical levels the advised tree must
	// differ by before drift registers at all (damping oscillation).
	MinLevelDelta int
	// Cooldown is the minimum controller-clock time between migrations.
	Cooldown time.Duration
	// Availability is the per-replica availability assumption handed to
	// the advisor.
	Availability float64
	// Objective is the advisor objective.
	Objective config.Objective
	// DegradeTolerance is the abort-on-degradation guard's threshold: a
	// migration is reverted when the post-migration windowed load exceeds
	// the pre-migration one by more than this fraction.
	DegradeTolerance float64
	// Clock is the controller's notion of time, used for journal
	// timestamps and the cooldown. Nil makes it logical: it starts at the
	// epoch and advances by one interval per Step, which is equivalent to
	// wall time when Run drives the steps and exactly reproducible when a
	// harness does.
	Clock func() time.Time
	// Enabled is the initial enabled state. A disabled controller observes
	// and journals nothing until an operator turns it on.
	Enabled bool
}

// DefaultConfig returns the controller defaults: disabled, on a logical
// clock, minimizing load.
func DefaultConfig() Config {
	return Config{
		Interval:         DefaultInterval,
		Window:           DefaultWindow,
		MinLevelDelta:    DefaultMinLevelDelta,
		Cooldown:         DefaultCooldown,
		Availability:     DefaultAvailability,
		Objective:        config.MinimizeLoad,
		DegradeTolerance: DefaultDegradeTolerance,
	}
}

// sample is one tick's worth of deltas against the previous tick.
type sample struct {
	reads, writes uint64
	// siteReads/siteWrites are per-site participation deltas, positionally
	// aligned with the sorted site list (LoadReport order).
	siteReads, siteWrites []uint64
}

// Controller is the adaptation loop. All methods are safe for concurrent
// use; Step is the deterministic core, Run the production driver.
type Controller struct {
	c   *cluster.Cluster
	cfg Config

	mu      sync.Mutex
	enabled bool
	now     time.Time // logical clock (when no clock is injected)

	prevOps  cluster.OpTotals
	prevLoad []cluster.SiteLoad
	samples  []sample // most recent window of per-tick deltas

	driftStreak int
	lastAction  time.Time
	hasActed    bool

	// probation is the post-migration watch: >0 means a migration is being
	// judged; when it reaches 0 the guard compares loads and may revert.
	probation int
	preScore  float64 // weighted windowed load before the migration
	preFrac   float64 // read fraction the migration was judged under
	prevTree  *tree.Tree

	reconfigs uint64
	reverts   uint64
	j         *journal

	metrics *metrics
}

// New builds a controller bound to the cluster. When the cluster carries an
// observer, the controller registers its arbor_adapt_* metric families on
// the observer's registry. Start the production loop with Run, or drive
// Step directly from a deterministic harness.
func New(c *cluster.Cluster, cfg Config) (*Controller, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("adapt: interval %v must be positive", cfg.Interval)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("adapt: window %d must be at least 1", cfg.Window)
	}
	if cfg.MinLevelDelta < 1 {
		return nil, fmt.Errorf("adapt: min level delta %d must be at least 1", cfg.MinLevelDelta)
	}
	if cfg.Availability <= 0 || cfg.Availability > 1 {
		return nil, fmt.Errorf("adapt: availability %v outside (0,1]", cfg.Availability)
	}
	switch cfg.Objective {
	case config.MinimizeLoad, config.MinimizeCost, config.MinimizeLoadCostProduct:
	default:
		return nil, fmt.Errorf("adapt: unknown objective %v", cfg.Objective)
	}
	if cfg.DegradeTolerance < 0 {
		return nil, fmt.Errorf("adapt: degrade tolerance %v must be non-negative", cfg.DegradeTolerance)
	}
	ctl := &Controller{c: c, cfg: cfg, enabled: cfg.Enabled, now: time.Unix(0, 0).UTC()}
	ctl.j = newJournal(JournalCap)
	ctl.registerMetrics(c.Observer().Reg())
	return ctl, nil
}

// Run evaluates the controller every interval until the context is
// cancelled. It never returns an error: migration failures are journaled
// evidence, not loop-fatal conditions.
func (a *Controller) Run(ctx context.Context) {
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.Step()
		}
	}
}

// Enabled reports whether the controller is allowed to act.
func (a *Controller) Enabled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enabled
}

// SetEnabled toggles the controller and journals the transition. It reports
// whether the state changed.
func (a *Controller) SetEnabled(on bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.enabled == on {
		return false
	}
	a.enabled = on
	action, reason := ActionEnable, "controller enabled"
	if !on {
		action, reason = ActionDisable, "controller disabled"
	}
	a.record(Decision{
		At:          a.readClock(),
		Action:      action,
		Reason:      reason,
		CurrentSpec: a.c.Tree().Spec(),
	})
	if on {
		a.metrics.enabled.Set(1)
	} else {
		a.metrics.enabled.Set(0)
	}
	return true
}

// Reconfigurations returns how many migrations the controller has driven
// (reverts included).
func (a *Controller) Reconfigurations() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconfigs + a.reverts
}

// Reverts returns how many migrations the degradation guard undid.
func (a *Controller) Reverts() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reverts
}

// Journal returns up to n recent decisions, oldest first (n <= 0: all
// retained entries).
func (a *Controller) Journal(n int) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.j.last(n)
}

// readClock returns the controller's current time without advancing it.
func (a *Controller) readClock() time.Time {
	if a.cfg.Clock != nil {
		return a.cfg.Clock()
	}
	return a.now
}

// record journals a decision and feeds the decision counters.
func (a *Controller) record(d Decision) Decision {
	d = a.j.append(d)
	a.metrics.decision(d.Action)
	return d
}

// Step advances the clock one interval, takes a sample, and evaluates. The
// returned bool is false when the controller is disabled — it still
// sampled (keeping the window warm for the moment it is enabled) but made
// no decision and journaled nothing.
func (a *Controller) Step() (Decision, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Clock == nil {
		a.now = a.now.Add(a.cfg.Interval)
	}
	snap := a.c.StatsSnapshot()
	a.push(snap)
	if !a.enabled {
		return Decision{}, false
	}
	d := a.evaluate(snap)
	a.metrics.observe(a, d)
	return d, true
}

// push appends the tick's deltas to the observation window.
func (a *Controller) push(snap cluster.StatsView) {
	s := sample{
		reads:  uint64(snap.Ops.ReadOps()) - uint64(a.prevOps.ReadOps()),
		writes: uint64(snap.Ops.WriteOps()) - uint64(a.prevOps.WriteOps()),
	}
	sites := snap.Load.Sites // sorted by site ID, fixed membership
	s.siteReads = make([]uint64, len(sites))
	s.siteWrites = make([]uint64, len(sites))
	aligned := len(a.prevLoad) == len(sites)
	for i, sl := range sites {
		var prevR, prevW uint64
		if aligned && a.prevLoad[i].Site == sl.Site {
			prevR, prevW = a.prevLoad[i].ReadServes, a.prevLoad[i].WriteServes
		}
		s.siteReads[i] = sl.ReadServes - prevR
		s.siteWrites[i] = sl.WriteServes - prevW
	}
	a.prevOps = snap.Ops
	a.prevLoad = sites
	a.samples = append(a.samples, s)
	if len(a.samples) > a.cfg.Window {
		a.samples = a.samples[len(a.samples)-a.cfg.Window:]
	}
}

// windowStats aggregates the current observation window.
func (a *Controller) windowStats() WindowStats {
	w := WindowStats{Samples: len(a.samples)}
	var maxR, maxW uint64
	var perSiteR, perSiteW []uint64
	for _, s := range a.samples {
		w.Reads += s.reads
		w.Writes += s.writes
		if perSiteR == nil {
			perSiteR = make([]uint64, len(s.siteReads))
			perSiteW = make([]uint64, len(s.siteWrites))
		}
		if len(s.siteReads) == len(perSiteR) {
			for i := range s.siteReads {
				perSiteR[i] += s.siteReads[i]
				perSiteW[i] += s.siteWrites[i]
			}
		}
	}
	for i := range perSiteR {
		if perSiteR[i] > maxR {
			maxR = perSiteR[i]
		}
		if perSiteW[i] > maxW {
			maxW = perSiteW[i]
		}
	}
	if w.Reads > 0 {
		w.MaxReadLoad = float64(maxR) / float64(w.Reads)
	}
	if w.Writes > 0 {
		w.MaxWriteLoad = float64(maxW) / float64(w.Writes)
	}
	if total := w.Reads + w.Writes; total > 0 {
		w.ReadFraction = float64(w.Reads) / float64(total)
	}
	return w
}

// weightedLoad folds a window's empirical maxima into one score: the
// read-fraction-weighted mix of the two Eq 3.2 empirical loads.
func weightedLoad(w WindowStats, readFraction float64) float64 {
	return readFraction*w.MaxReadLoad + (1-readFraction)*w.MaxWriteLoad
}

// evaluate is the decision procedure: one call, one journaled Decision.
// The caller holds the lock.
func (a *Controller) evaluate(snap cluster.StatsView) Decision {
	w := a.windowStats()
	check := snap.TheoryCheck()
	d := Decision{
		At:             a.readClock(),
		Action:         ActionHold,
		Window:         w,
		CurrentSpec:    snap.Tree.Spec(),
		CurrentLevels:  snap.Proto.NumPhysicalLevels(),
		TheoryReadGap:  check.ReadDeviation(),
		TheoryWriteGap: check.WriteDeviation(),
	}

	// Post-migration probation: judge the previous migration before
	// considering a new one.
	if a.probation > 0 {
		a.probation--
		if a.probation > 0 {
			d.Reason = fmt.Sprintf("probation: %d tick(s) until the last migration is judged", a.probation)
			return a.record(d)
		}
		return a.judgeMigration(d, w)
	}

	if w.Samples < a.cfg.Window {
		d.Reason = fmt.Sprintf("warming up: %d/%d samples", w.Samples, a.cfg.Window)
		a.driftStreak = 0
		return a.record(d)
	}
	if w.Ops() < MinWindowOps {
		d.Reason = fmt.Sprintf("low signal: %d op(s) in window, need %d", w.Ops(), MinWindowOps)
		a.driftStreak = 0
		return a.record(d)
	}

	adv, err := config.Advise(snap.Tree.N(), a.cfg.Availability, w.ReadFraction, a.cfg.Objective)
	if err != nil {
		d.Outcome = err.Error()
		d.Reason = "advisor failed"
		a.driftStreak = 0
		return a.record(d)
	}
	d.AdvisedSpec = adv.Tree.Spec()
	d.AdvisedLevels = adv.Tree.NumPhysicalLevels()
	d.AdvisedScore = adv.Score
	if cur, err := config.Score(core.Analyze(snap.Tree), a.cfg.Availability, w.ReadFraction, a.cfg.Objective); err == nil {
		d.CurrentScore = cur
	}

	delta := d.CurrentLevels - d.AdvisedLevels
	if delta < 0 {
		delta = -delta
	}
	if delta < a.cfg.MinLevelDelta {
		a.driftStreak = 0
		d.Reason = fmt.Sprintf("shape fits: advised tree within %d level(s) of current", delta)
		return a.record(d)
	}

	a.driftStreak++
	if a.driftStreak < a.cfg.Window {
		d.Reason = fmt.Sprintf("hysteresis: drifted %d/%d tick(s)", a.driftStreak, a.cfg.Window)
		return a.record(d)
	}
	if a.hasActed {
		if since := d.At.Sub(a.lastAction); since < a.cfg.Cooldown {
			d.Reason = fmt.Sprintf("cooldown: %v since last migration, need %v", since, a.cfg.Cooldown)
			return a.record(d)
		}
	}

	// Act: migrate to the advised tree.
	d.Action = ActionMigrate
	d.Reason = fmt.Sprintf("workload drifted for a full window (read fraction %.2f): score %.4f -> %.4f",
		w.ReadFraction, d.CurrentScore, d.AdvisedScore)
	prev := snap.Tree
	if err := a.c.Reconfigure(adv.Tree); err != nil {
		// Transient conditions (a crashed replica) veto migration; keep the
		// drift streak so the controller retries as soon as they clear.
		d.Outcome = err.Error()
		a.driftStreak--
		return a.record(d)
	}
	d.Outcome = "ok"
	a.reconfigs++
	a.hasActed = true
	a.lastAction = d.At
	a.driftStreak = 0
	a.prevTree = prev
	a.preScore = weightedLoad(w, w.ReadFraction)
	a.preFrac = w.ReadFraction
	a.probation = a.cfg.Window
	a.samples = nil // judge the migration on post-migration evidence only
	return a.record(d)
}

// judgeMigration ends probation: compare the post-migration window against
// the pre-migration score and revert when the measured load degraded past
// the tolerance. The caller holds the lock.
func (a *Controller) judgeMigration(d Decision, w WindowStats) Decision {
	post := weightedLoad(w, a.preFrac)
	if w.Ops() < MinWindowOps || a.preScore <= 0 || post <= a.preScore*(1+a.cfg.DegradeTolerance) {
		d.Reason = fmt.Sprintf("probation passed: windowed load %.4f vs %.4f before migration", post, a.preScore)
		a.prevTree = nil
		return a.record(d)
	}
	d.Action = ActionRevert
	d.Reason = fmt.Sprintf("degradation: windowed load %.4f exceeds pre-migration %.4f by more than %.0f%%",
		post, a.preScore, a.cfg.DegradeTolerance*100)
	d.AdvisedSpec = a.prevTree.Spec()
	d.AdvisedLevels = a.prevTree.NumPhysicalLevels()
	if err := a.c.Reconfigure(a.prevTree); err != nil {
		d.Outcome = err.Error()
		a.probation = 1 // re-judge next tick, when the revert may be possible
		return a.record(d)
	}
	d.Outcome = "ok"
	a.reverts++
	a.hasActed = true
	a.lastAction = d.At
	a.driftStreak = 0
	a.prevTree = nil
	a.samples = nil
	return a.record(d)
}

// State is a point-in-time summary of the controller for inspection
// surfaces (/controller on arbord, arborctl controller).
type State struct {
	Enabled          bool          `json:"enabled"`
	Interval         time.Duration `json:"intervalNs"`
	Window           int           `json:"window"`
	MinWindowOps     uint64        `json:"minWindowOps"`
	MinLevelDelta    int           `json:"minLevelDelta"`
	Cooldown         time.Duration `json:"cooldownNs"`
	Availability     float64       `json:"availability"`
	Objective        string        `json:"objective"`
	CurrentSpec      string        `json:"currentSpec"`
	DriftStreak      int           `json:"driftStreak"`
	Probation        int           `json:"probation"`
	Reconfigurations uint64        `json:"reconfigurations"`
	Reverts          uint64        `json:"reverts"`
	JournalSeq       uint64        `json:"journalSeq"`
	WindowStats      WindowStats   `json:"windowStats"`
}

// State snapshots the controller.
func (a *Controller) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return State{
		Enabled:          a.enabled,
		Interval:         a.cfg.Interval,
		Window:           a.cfg.Window,
		MinWindowOps:     MinWindowOps,
		MinLevelDelta:    a.cfg.MinLevelDelta,
		Cooldown:         a.cfg.Cooldown,
		Availability:     a.cfg.Availability,
		Objective:        a.cfg.Objective.String(),
		CurrentSpec:      a.c.Tree().Spec(),
		DriftStreak:      a.driftStreak,
		Probation:        a.probation,
		Reconfigurations: a.reconfigs + a.reverts,
		Reverts:          a.reverts,
		JournalSeq:       a.j.seq,
		WindowStats:      a.windowStats(),
	}
}
