package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/tree"
	"arbor/internal/workload"
)

// testSpec keeps runs small enough for the tier-1 suite while still
// exercising faults. The 30ms timeout leaves headroom over in-memory
// delivery so loaded CI machines don't produce spurious unavailability.
func testSpec(seed int64) Spec {
	return Spec{
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
	spec := Spec{Seed: 7, Ops: 50, Faults: 8}
	a, err := BuildInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInput(spec)
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
	in, err := BuildInput(testSpec(3))
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
	rep, err := Campaign(testSpec(1), 2)
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
	spec := testSpec(1)
	spec.SkipWALReplay = true
	spec.Faults = 5
	rep, err := Campaign(spec, 15)
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
	spec := testSpec(1)
	spec.SkipWALReplay = true
	spec.Faults = 5
	spec.Phases = []Phase{{Profile: ProfileMostlyWrite, Ops: 15}, {Profile: ProfileBalanced, Ops: 10}}
	rep, err := Campaign(spec, 15)
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

// TestPlainWorkloadIsOnePhase: a plain ops/profile/zipf workload is the
// one-phase stream it equals — the same ops as the phase declared
// explicitly, and as the workload generator drawing directly with the run's
// seed — but, declaring no phase, it carries no workload= marker.
func TestPlainWorkloadIsOnePhase(t *testing.T) {
	plain, err := BuildInput(Spec{Seed: 4, Ops: 40, Profile: ProfileMostlyRead, Zipf: 1.3, Faults: 3})
	if err != nil {
		t.Fatal(err)
	}
	phased, err := BuildInput(Spec{Seed: 4, Phases: []Phase{{Profile: ProfileMostlyRead, Ops: 40, Zipf: 1.3}}, Faults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Ops, phased.Ops) {
		t.Errorf("plain and one-phase streams differ:\n%+v\n%+v", plain.Ops, phased.Ops)
	}
	gen, err := workload.NewGenerator(workload.Config{ReadFraction: 0.9, Keys: 4, ZipfS: 1.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range plain.Ops {
		if want := gen.Next(); op.Read != want.IsRead || op.Key != want.Key {
			t.Fatalf("op %d = %+v, the generator drew %+v", i, op, want)
		}
	}
	if n := countMarkers(plain.Events); n != 0 {
		t.Errorf("plain workload carries %d markers, want none", n)
	}
	if n := countMarkers(phased.Events); n != 1 {
		t.Errorf("one declared phase carries %d markers, want 1", n)
	}
	if !reflect.DeepEqual(plain.Events, phased.Events[1:]) {
		t.Errorf("fault schedules differ:\n%v\n%v", plain.Events, phased.Events)
	}
}

// TestSiteRTTLowering: latency classes become the per-site RTT map over the
// physical levels, a site's own entry winning over its level's.
func TestSiteRTTLowering(t *testing.T) {
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := siteRTT(tr, Latency{
		Levels: []LevelRTT{{Level: 0, RTT: 2 * time.Millisecond}, {Level: 1, RTT: 4 * time.Millisecond}},
		Sites:  []SiteRTT{{Site: 4, RTT: 8 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	phys := tr.PhysicalLevels()
	want := map[tree.SiteID]time.Duration{}
	for _, s := range tr.LevelSites(phys[0]) {
		want[s] = 2 * time.Millisecond
	}
	for _, s := range tr.LevelSites(phys[1]) {
		want[s] = 4 * time.Millisecond
	}
	want[4] = 8 * time.Millisecond
	if !reflect.DeepEqual(got, want) {
		t.Errorf("siteRTT = %v, want %v", got, want)
	}
	if _, err := siteRTT(tr, Latency{Levels: []LevelRTT{{Level: 2}}}); err == nil {
		t.Error("a level the tree does not have was accepted")
	}
}
