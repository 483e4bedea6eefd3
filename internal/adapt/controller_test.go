package adapt

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/config"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

func newCluster(t *testing.T, spec string) *cluster.Cluster {
	t.Helper()
	return newObservedCluster(t, spec, nil)
}

func newObservedCluster(t *testing.T, spec string, o *obs.Observer) *cluster.Cluster {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(tr, cluster.Config{Seed: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func newClient(t *testing.T, c *cluster.Cluster) *client.Client {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

// newController builds a controller from DefaultConfig as edited by set.
func newController(t *testing.T, c *cluster.Cluster, set func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	set(&cfg)
	ctl, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// doReads/doWrites drive one tick's worth of workload.
func doReads(t *testing.T, cli *client.Client, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func doWrites(t *testing.T, cli *client.Client, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := cli.Write(ctx, fmt.Sprintf("k%d", i%4), []byte("v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// TestControllerFlipMigratesAndBack is the acceptance scenario: a
// read-heavy → write-heavy flip migrates the MOSTLY-READ tree towards
// MOSTLY-WRITE, the reverse flip migrates it back, and every
// reconfiguration is explained by a journal entry.
func TestControllerFlipMigratesAndBack(t *testing.T) {
	c := newObservedCluster(t, "1-16", obs.NewObserver(0))
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Cooldown, cfg.MinLevelDelta, cfg.Enabled = 3, 0, 2, true
	})
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Read-heavy phase: the single-level tree already fits; only holds.
	for tick := 0; tick < 6; tick++ {
		doReads(t, cli, 25)
		ctl.Step()
	}
	if got := ctl.Reconfigurations(); got != 0 {
		t.Fatalf("controller reconfigured %d time(s) on a well-fitted workload", got)
	}

	// Write-heavy flip: drift accumulates, then a migration fires.
	for tick := 0; tick < 30 && ctl.Reconfigurations() == 0; tick++ {
		doWrites(t, cli, 25)
		ctl.Step()
	}
	if got := ctl.Reconfigurations(); got != 1 {
		t.Fatalf("write-heavy flip produced %d reconfigurations, want 1", got)
	}
	if got := c.Tree().NumPhysicalLevels(); got < 3 {
		t.Fatalf("tree has %d levels after write-heavy flip, want ≥ 3 (%s)", got, c.Tree().Spec())
	}

	// Reverse flip: probation must pass, drift re-accumulates, and the
	// controller migrates back to the read-optimized single level.
	for tick := 0; tick < 40 && ctl.Reconfigurations() == 1; tick++ {
		doReads(t, cli, 25)
		ctl.Step()
	}
	if got := ctl.Reconfigurations(); got != 2 {
		t.Fatalf("reverse flip produced %d total reconfigurations, want 2", got)
	}
	if got := c.Tree().NumPhysicalLevels(); got != 1 {
		t.Fatalf("tree has %d levels after reverse flip, want 1 (%s)", got, c.Tree().Spec())
	}
	if got := ctl.Reverts(); got != 0 {
		t.Fatalf("degradation guard reverted %d time(s)", got)
	}

	// Data written before any migration survives both of them.
	rd, err := cli.Read(ctx, "k")
	if err != nil {
		t.Fatalf("read after migrations: %v", err)
	}
	if string(rd.Value) != "v" {
		t.Fatalf("value corrupted across migrations: %q", rd.Value)
	}

	// Every reconfiguration is explained by a journal entry.
	var migrations []Decision
	for _, d := range ctl.Journal(0) {
		if d.Action == ActionMigrate && d.Outcome == "ok" {
			migrations = append(migrations, d)
		}
	}
	if len(migrations) != 2 {
		t.Fatalf("journal explains %d migrations, want 2", len(migrations))
	}
	first, second := migrations[0], migrations[1]
	if first.CurrentSpec != "1-16" || first.AdvisedLevels < 3 {
		t.Errorf("first migration %s -> %s, want 1-16 -> ≥3 levels", first.CurrentSpec, first.AdvisedSpec)
	}
	if second.AdvisedSpec != "1-16" {
		t.Errorf("second migration %s -> %s, want back to 1-16", second.CurrentSpec, second.AdvisedSpec)
	}
	for _, d := range migrations {
		if d.Window.Ops() == 0 || d.Reason == "" || d.AdvisedScore >= d.CurrentScore {
			t.Errorf("migration #%d lacks evidence: %+v", d.Seq, d)
		}
	}

	// The controller's metric families are live on the cluster's registry.
	var buf bytes.Buffer
	if err := c.Observer().Reg().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"arbor_adapt_decisions_total",
		"arbor_adapt_reconfigurations_total",
		"arbor_adapt_window_read_fraction",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestControllerHoldsOnZeroOpWindow regression-guards the AutoTuner's
// zero-op edge case: an idle cluster never triggers a migration, and the
// holds say why.
func TestControllerHoldsOnZeroOpWindow(t *testing.T) {
	c := newCluster(t, "1-16")
	newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Enabled = 2, true
	})

	for i := 0; i < 6; i++ {
		d, ok := ctl.Step()
		if !ok {
			t.Fatal("enabled controller skipped evaluation")
		}
		if d.Action != ActionHold {
			t.Fatalf("step %d acted (%s) on zero ops", i, d.Action)
		}
	}
	if got := ctl.Reconfigurations(); got != 0 {
		t.Fatalf("controller reconfigured %d time(s) with zero operations", got)
	}
	j := ctl.Journal(0)
	last := j[len(j)-1]
	if !strings.Contains(last.Reason, "low signal") {
		t.Errorf("idle hold reason = %q, want low-signal", last.Reason)
	}
	if j[0].Window.Samples >= 2 && !strings.Contains(j[0].Reason, "warming up") {
		t.Errorf("first hold reason = %q", j[0].Reason)
	}
}

// TestControllerMinDeltaSuppression regression-guards the AutoTuner's
// min-delta edge case: advice within the level-delta threshold never
// registers as drift.
func TestControllerMinDeltaSuppression(t *testing.T) {
	// Read-heavy on "1-8-8": the advisor wants the single-level tree, one
	// level away — below the threshold of 2, so the controller holds.
	c := newCluster(t, "1-8-8")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Cooldown, cfg.MinLevelDelta, cfg.Enabled = 2, 0, 2, true
	})
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 6; tick++ {
		doReads(t, cli, 25)
		ctl.Step()
	}
	if got := ctl.Reconfigurations(); got != 0 {
		t.Fatalf("controller reconfigured %d time(s) inside the min level delta", got)
	}
	j := ctl.Journal(1)
	if len(j) != 1 || !strings.Contains(j[0].Reason, "shape fits") {
		t.Fatalf("suppressed hold reason = %+v, want shape-fits", j)
	}
	if j[0].AdvisedSpec != "1-16" {
		t.Errorf("advised spec = %q, want 1-16", j[0].AdvisedSpec)
	}

	// Dropping the threshold to 1 turns the same evidence into a migration.
	ctl2 := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Cooldown, cfg.MinLevelDelta, cfg.Enabled = 2, 0, 1, true
	})
	for tick := 0; tick < 10 && ctl2.Reconfigurations() == 0; tick++ {
		doReads(t, cli, 25)
		ctl2.Step()
	}
	if got := ctl2.Reconfigurations(); got != 1 {
		t.Fatalf("min delta 1 produced %d reconfigurations, want 1", got)
	}
	if got := c.Tree().Spec(); got != "1-16" {
		t.Fatalf("tree = %s after migration, want 1-16", got)
	}
}

// TestControllerDisabledObservesSilently: a disabled controller samples
// but journals nothing, and enable/disable transitions are journaled.
func TestControllerDisabledObservesSilently(t *testing.T) {
	c := newCluster(t, "1-16")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) { cfg.Window = 2 })
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		doWrites(t, cli, 25)
		if _, ok := ctl.Step(); ok {
			t.Fatal("disabled controller evaluated")
		}
	}
	if got := len(ctl.Journal(0)); got != 0 {
		t.Fatalf("disabled controller journaled %d decisions", got)
	}

	if !ctl.SetEnabled(true) {
		t.Fatal("SetEnabled(true) reported no change")
	}
	if ctl.SetEnabled(true) {
		t.Fatal("repeated SetEnabled(true) reported a change")
	}
	ctl.SetEnabled(false)
	j := ctl.Journal(0)
	if len(j) != 2 || j[0].Action != ActionEnable || j[1].Action != ActionDisable {
		t.Fatalf("transition journal = %+v", j)
	}
}

// TestControllerCooldown: after a migration, renewed drift inside the
// cooldown holds with a cooldown reason.
func TestControllerCooldown(t *testing.T) {
	c := newCluster(t, "1-16")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Interval, cfg.Cooldown, cfg.MinLevelDelta, cfg.Enabled = 2, time.Second, time.Hour, 1, true
	})
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 20 && ctl.Reconfigurations() == 0; tick++ {
		doWrites(t, cli, 25)
		ctl.Step()
	}
	if ctl.Reconfigurations() != 1 {
		t.Fatalf("no initial migration (%d)", ctl.Reconfigurations())
	}
	// Flip to reads: the advised tree changes again, but the hour-long
	// cooldown (measured on the logical clock) blocks the second migration.
	sawCooldown := false
	for tick := 0; tick < 12; tick++ {
		doReads(t, cli, 25)
		d, _ := ctl.Step()
		if strings.Contains(d.Reason, "cooldown") {
			sawCooldown = true
		}
	}
	if !sawCooldown {
		t.Error("renewed drift inside the cooldown never journaled a cooldown hold")
	}
	if got := ctl.Reconfigurations(); got != 1 {
		t.Errorf("cooldown did not block the second migration (%d total)", got)
	}
}

// TestControllerRevertOnDegradation drives the abort-on-degradation guard
// directly: a probation window whose measured load is far worse than the
// pre-migration score reverts to the remembered tree.
func TestControllerRevertOnDegradation(t *testing.T) {
	c := newCluster(t, "1-16")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Cooldown, cfg.Enabled = 2, 0, true
	})
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Pretend a migration from "1-8-8" just happened and looked great
	// before (preScore near zero): any real measured load now counts as
	// degradation once the post-migration window fills.
	prev, err := tree.ParseSpec("1-8-8")
	if err != nil {
		t.Fatal(err)
	}
	ctl.mu.Lock()
	ctl.probation = 2
	ctl.preScore = 0.001
	ctl.preFrac = 0
	ctl.prevTree = prev
	ctl.hasActed = true
	ctl.samples = nil
	ctl.mu.Unlock()

	doWrites(t, cli, 25)
	d, _ := ctl.Step()
	if d.Action != ActionHold || !strings.Contains(d.Reason, "probation") {
		t.Fatalf("first probation tick = %+v", d)
	}
	doWrites(t, cli, 25)
	d, _ = ctl.Step()
	if d.Action != ActionRevert {
		t.Fatalf("degraded probation ended with %s (%s), want revert", d.Action, d.Reason)
	}
	if d.Outcome != "ok" {
		t.Fatalf("revert outcome = %q", d.Outcome)
	}
	if got := c.Tree().Spec(); got != "1-8-8" {
		t.Fatalf("tree = %s after revert, want 1-8-8", got)
	}
	if ctl.Reverts() != 1 {
		t.Fatalf("Reverts() = %d, want 1", ctl.Reverts())
	}
}

// TestControllerProbationPasses: a healthy post-migration window clears
// probation without a revert.
func TestControllerProbationPasses(t *testing.T) {
	c := newCluster(t, "1-16")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Cooldown, cfg.Enabled = 2, 0, true
	})
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	prev, err := tree.ParseSpec("1-8-8")
	if err != nil {
		t.Fatal(err)
	}
	ctl.mu.Lock()
	ctl.probation = 1
	ctl.preScore = 10 // the old shape was terrible; anything passes
	ctl.preFrac = 1
	ctl.prevTree = prev
	ctl.hasActed = true
	ctl.samples = nil
	ctl.mu.Unlock()

	doReads(t, cli, 25)
	d, _ := ctl.Step()
	if d.Action != ActionHold || !strings.Contains(d.Reason, "probation passed") {
		t.Fatalf("healthy probation = %+v, want probation-passed hold", d)
	}
	if ctl.Reverts() != 0 {
		t.Fatalf("healthy probation reverted (%d)", ctl.Reverts())
	}
}

// TestControllerStateSnapshot sanity-checks the /controller JSON source.
func TestControllerStateSnapshot(t *testing.T) {
	c := newCluster(t, "1-3-5")
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Window, cfg.Availability, cfg.Objective = 4, 0.8, config.MinimizeCost
	})
	st := ctl.State()
	if st.Enabled {
		t.Error("controller starts enabled")
	}
	if st.Window != 4 || st.Availability != 0.8 || st.Objective != "cost" {
		t.Errorf("state = %+v", st)
	}
	if st.CurrentSpec != "1-3-5" {
		t.Errorf("current spec = %q", st.CurrentSpec)
	}
	if st.MinWindowOps != MinWindowOps || st.MinLevelDelta != DefaultMinLevelDelta {
		t.Errorf("defaults not applied: %+v", st)
	}
}

// TestDefaultConfigKeepsDefaults: a controller from DefaultConfig carries
// the Default* knobs, minimizes load, starts disabled on the logical clock,
// and an explicit zero cooldown stays zero.
func TestDefaultConfigKeepsDefaults(t *testing.T) {
	c := newCluster(t, "1-3-5")
	ctl := newController(t, c, func(*Config) {})
	got := ctl.cfg
	if got.Interval != DefaultInterval || got.Window != DefaultWindow ||
		got.MinLevelDelta != DefaultMinLevelDelta || got.Cooldown != DefaultCooldown ||
		got.Availability != DefaultAvailability || got.Objective != config.MinimizeLoad ||
		got.DegradeTolerance != DefaultDegradeTolerance || got.Clock != nil || got.Enabled {
		t.Errorf("default config = %+v", got)
	}
	if st := ctl.State(); st.Enabled || st.Cooldown != DefaultCooldown || st.Objective != "load" {
		t.Errorf("default state = %+v", st)
	}
	if st := newController(t, c, func(cfg *Config) { cfg.Cooldown = 0 }).State(); st.Cooldown != 0 {
		t.Errorf("explicit zero cooldown became %v", st.Cooldown)
	}
}

// TestControllerOptionValidation: nonsense knobs fail construction.
func TestControllerOptionValidation(t *testing.T) {
	c := newCluster(t, "1-3-5")
	for name, set := range map[string]func(*Config){
		"zero interval":    func(cfg *Config) { cfg.Interval = 0 },
		"zero window":      func(cfg *Config) { cfg.Window = 0 },
		"zero level delta": func(cfg *Config) { cfg.MinLevelDelta = 0 },
		"bad availability": func(cfg *Config) { cfg.Availability = 1.5 },
		"bad objective":    func(cfg *Config) { cfg.Objective = 0 },
		"bad tolerance":    func(cfg *Config) { cfg.DegradeTolerance = -1 },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := New(c, cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
}

// TestControllerRunLoop exercises the production ticker path.
func TestControllerRunLoop(t *testing.T) {
	c := newCluster(t, "1-16")
	cli := newClient(t, c)
	ctl := newController(t, c, func(cfg *Config) {
		cfg.Interval, cfg.Window, cfg.Clock, cfg.Enabled = 5*time.Millisecond, 2, time.Now, true
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { ctl.Run(ctx); close(done) }()
	ctxOps := context.Background()
	deadline := time.Now().Add(3 * time.Second)
	for len(ctl.Journal(1)) == 0 && time.Now().Before(deadline) {
		if _, err := cli.Write(ctxOps, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	<-done
	if len(ctl.Journal(1)) == 0 {
		t.Fatal("Run loop journaled nothing")
	}
}
