package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"arbor/internal/cluster"
)

// testConfig keeps runs small enough for the tier-1 suite while still
// exercising faults. The 30ms timeout leaves headroom over in-memory
// delivery so loaded CI machines don't produce spurious unavailability.
func testConfig(seed int64) Config {
	return Config{
		Seed:    seed,
		Ops:     30,
		Faults:  4,
		Keys:    3,
		Clients: 2,
		Timeout: 30 * time.Millisecond,
		LockTTL: 500 * time.Millisecond,
	}
}

func TestProfileReadFraction(t *testing.T) {
	cases := []struct {
		p    Profile
		want float64
		ok   bool
	}{
		{"", 0.5, true},
		{ProfileBalanced, 0.5, true},
		{ProfileMostlyRead, 0.9, true},
		{ProfileMostlyWrite, 0.1, true},
		{Profile("bogus"), 0, false},
	}
	for _, c := range cases {
		got, err := c.p.ReadFraction()
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ReadFraction(%q) = %v, %v; want %v, ok=%v", c.p, got, err, c.want, c.ok)
		}
	}
}

func TestBuildInputDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 50, Faults: 8}
	a, err := BuildInput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BuildInput is not deterministic for a fixed config")
	}
	if len(a.Ops) != 50 || len(a.Events) != 8 {
		t.Errorf("got %d ops, %d events; want 50, 8", len(a.Ops), len(a.Events))
	}
}

// TestSimDeterministic is the harness's core promise: executing the same
// input twice yields the identical op-by-op trace and verdict.
func TestSimDeterministic(t *testing.T) {
	in, err := BuildInput(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Trace, r2.Trace) {
		t.Errorf("traces differ between identical runs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(r1.Trace, "\n"), strings.Join(r2.Trace, "\n"))
	}
	if !reflect.DeepEqual(r1.Violations, r2.Violations) {
		t.Errorf("verdicts differ: %v vs %v", r1.Violations, r2.Violations)
	}
}

// TestSimSmoke runs a short bounded campaign on the real protocol and
// expects every invariant to hold.
func TestSimSmoke(t *testing.T) {
	rep, err := Campaign(testConfig(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("campaign found a violation (run %d, seed %d):\n%v\nschedule: %s",
			rep.Failure.Run, rep.Failure.Seed, rep.Failure.Violations, cluster.Schedule(rep.Failure.Input.Events))
	}
	if rep.Runs != 2 || rep.OpsExecuted == 0 {
		t.Errorf("report = %+v, want 2 runs with ops executed", rep)
	}
}

// TestSimFindsInjectedWALBug arms the deliberate durability bug (restarts
// discard the journals) and requires the campaign to catch it, shrink the
// schedule to a handful of events, and reproduce it from the shrunk input.
// (Its round trip through a .arb file is internal/scenario's
// TestShrunkReproducerReplays.)
func TestSimFindsInjectedWALBug(t *testing.T) {
	cfg := testConfig(1)
	cfg.SkipWALReplay = true
	cfg.Faults = 5
	rep, err := Campaign(cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatal("campaign missed the injected WAL-replay bug")
	}
	sched := cluster.Schedule(rep.Failure.Input.Events)
	if n := len(sched); n > 5 {
		t.Errorf("shrunk schedule has %d events, want ≤ 5: %q", n, sched)
	}
	restarts := 0
	for _, ev := range sched {
		if ev.Restart {
			restarts++
		}
	}
	if restarts == 0 {
		t.Errorf("shrunk schedule %q kept no restart event, but the bug needs one", sched)
	}
	res, err := Execute(rep.Failure.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Violations, rep.Failure.Violations) {
		t.Errorf("replayed shrunk input shows %v, campaign reported %v", res.Violations, rep.Failure.Violations)
	}
}

// TestShrinkKeepsPhaseMarkers: the workload= markers are derived from the
// phases and carry no action, so minimizing a failure leaves all of them in
// place — a reproducer that derives them again then replays the same trace.
func TestShrinkKeepsPhaseMarkers(t *testing.T) {
	cfg := testConfig(1)
	cfg.SkipWALReplay = true
	cfg.Faults = 5
	cfg.Phases = []PhaseSpec{{Profile: ProfileMostlyWrite, Ops: 15}, {Profile: ProfileBalanced, Ops: 10}}
	rep, err := Campaign(cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatal("campaign missed the injected WAL-replay bug")
	}
	sched := cluster.Schedule(rep.Failure.Input.Events)
	if n := countMarkers(sched); n != 2 {
		t.Errorf("shrunk schedule %q kept %d phase markers, want both", sched, n)
	}
	if n := len(sched) - 2; n > 5 {
		t.Errorf("shrunk schedule %q has %d fault events, want ≤ 5", sched, n)
	}
}

func TestShrinkSliceMinimizes(t *testing.T) {
	items := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	calls := 0
	fails := func(s []int) bool {
		calls++
		has3, has7 := false, false
		for _, v := range s {
			has3 = has3 || v == 3
			has7 = has7 || v == 7
		}
		return has3 && has7
	}
	got := shrinkSlice(items, fails)
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Errorf("shrinkSlice = %v, want [3 7] (%d oracle calls)", got, calls)
	}
	if got := shrinkSlice([]int{5}, func(s []int) bool { return true }); got != nil {
		t.Errorf("shrinkSlice single removable item = %v, want nil", got)
	}
	if got := shrinkSlice([]int{5}, func(s []int) bool { return len(s) == 1 }); len(got) != 1 {
		t.Errorf("shrinkSlice single required item = %v, want [5]", got)
	}
}
