package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/cluster"
)

// flipSpec is a fault-free phased run: read-heavy on the read-optimized
// tree, a write-heavy flip, then back. Steps land every 10 ops with a
// 3-sample window, so each phase is long enough for warm-up, hysteresis
// and (after the first migration) probation plus cooldown.
func flipSpec(seed int64) Spec {
	return Spec{
		Tree:    "1-8",
		Seed:    seed,
		Keys:    3,
		Clients: 2,
		Timeout: 30 * time.Millisecond,
		LockTTL: 500 * time.Millisecond,
		Phases: []Phase{
			{Profile: ProfileMostlyRead, Ops: 40},
			{Profile: ProfileMostlyWrite, Ops: 60},
			{Profile: ProfileMostlyRead, Ops: 80},
		},
		Adapt: true,
	}
}

// TestSimAdaptationFollowsWorkloadFlip is the acceptance scenario under
// the harness: the controller migrates the MOSTLY-READ tree towards
// MOSTLY-WRITE when the phase flips, and back when it flips again, with
// zero invariant violations and every reconfiguration journaled.
func TestSimAdaptationFollowsWorkloadFlip(t *testing.T) {
	in, err := BuildInput(flipSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("adaptation run violated invariants: %v", res.Violations)
	}
	if res.Reconfigurations < 2 {
		t.Fatalf("flip produced %d reconfigurations, want ≥ 2 (journal: %v)",
			res.Reconfigurations, res.AdaptDecisions)
	}
	// The journal explains every migration: first away from the single
	// level, last back to it.
	var migrations []adapt.Decision
	for _, d := range res.AdaptDecisions {
		if d.Action == adapt.ActionMigrate && d.Outcome == "ok" {
			migrations = append(migrations, d)
		}
	}
	if len(migrations) != res.Reconfigurations {
		t.Fatalf("%d reconfigurations but %d journaled migrations", res.Reconfigurations, len(migrations))
	}
	if first := migrations[0]; first.CurrentSpec != "1-8" || first.AdvisedLevels < 2 {
		t.Errorf("first migration %s -> %s, want away from 1-8", first.CurrentSpec, first.AdvisedSpec)
	}
	if last := migrations[len(migrations)-1]; last.AdvisedSpec != "1-8" {
		t.Errorf("last migration %s -> %s, want back to 1-8", last.CurrentSpec, last.AdvisedSpec)
	}
	// Migrations (and the phase markers) are visible in the trace.
	trace := strings.Join(res.Trace, "\n")
	if !strings.Contains(trace, "workload=mostly-write") {
		t.Error("trace missing the workload phase marker")
	}
	if !strings.Contains(trace, "@ #") || !strings.Contains(trace, "migrate") {
		t.Error("trace missing the migration decisions")
	}
}

// TestSimAdaptationDeterministic extends the harness's determinism promise
// to controller decisions: identical inputs yield identical journals.
func TestSimAdaptationDeterministic(t *testing.T) {
	spec := flipSpec(5)
	spec.Faults = 3 // chaos on, so controller retries are exercised too
	in, err := BuildInput(spec)
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
		t.Errorf("traces differ between identical adaptation runs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(r1.Trace, "\n"), strings.Join(r2.Trace, "\n"))
	}
	if !reflect.DeepEqual(r1.AdaptDecisions, r2.AdaptDecisions) {
		t.Error("decision journals differ between identical runs")
	}
	if r1.Reconfigurations != r2.Reconfigurations {
		t.Errorf("reconfiguration counts differ: %d vs %d", r1.Reconfigurations, r2.Reconfigurations)
	}
}

// TestSimAdaptationCampaignHoldsInvariants runs a chaos campaign with the
// controller live: crashes, partitions and restarts interleave with live
// migrations, and one-copy semantics must survive all of it.
func TestSimAdaptationCampaignHoldsInvariants(t *testing.T) {
	spec := Spec{
		Seed:    1,
		Faults:  4,
		Keys:    3,
		Clients: 2,
		Timeout: 30 * time.Millisecond,
		LockTTL: 500 * time.Millisecond,
		Phases: []Phase{
			{Profile: ProfileMostlyRead, Ops: 30},
			{Profile: ProfileMostlyWrite, Ops: 50},
		},
		Adapt: true,
	}
	rep, err := Campaign(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("adaptation campaign found a violation (run %d, seed %d):\n%v\njournal: %v\nschedule: %s",
			rep.Failure.Run, rep.Failure.Seed, rep.Failure.Violations,
			rep.Failure.Decisions, cluster.Schedule(rep.Failure.Input.Events))
	}
	if rep.Runs != 3 || rep.OpsExecuted == 0 {
		t.Errorf("report = %+v, want 3 full runs", rep)
	}
}

// TestParsePhases covers the phase syntax.
func TestParsePhases(t *testing.T) {
	ps, err := ParsePhases("mostly-read:30, mostly-write:50")
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{{Profile: ProfileMostlyRead, Ops: 30}, {Profile: ProfileMostlyWrite, Ops: 50}}
	if !reflect.DeepEqual(ps, want) {
		t.Errorf("ParsePhases = %+v, want %+v", ps, want)
	}
	if ps, err := ParsePhases(""); err != nil || ps != nil {
		t.Errorf("empty phases = %v, %v", ps, err)
	}
	// Per-phase zipf skew and numeric profiles.
	ps, err = ParsePhases("balanced:20:zipf1.4,r0.7:10")
	if err != nil {
		t.Fatal(err)
	}
	want = []Phase{{Profile: ProfileBalanced, Ops: 20, Zipf: 1.4}, {Profile: "r0.7", Ops: 10}}
	if !reflect.DeepEqual(ps, want) {
		t.Errorf("ParsePhases with zipf = %+v, want %+v", ps, want)
	}
	for _, bad := range []string{"mostly-read", "bogus:10", "mostly-read:0", "mostly-read:x",
		"balanced:10:zipf0.5", "balanced:10:1.4", "balanced:10:zipfx", "r1.5:10", "rx:10"} {
		if _, err := ParsePhases(bad); err == nil {
			t.Errorf("ParsePhases(%q) accepted garbage", bad)
		}
	}
}

// TestPhasedOpsShiftMix: the generated stream actually changes mix at the
// phase boundary.
func TestPhasedOpsShiftMix(t *testing.T) {
	spec := Spec{
		Seed:   2,
		Faults: 6,
		Phases: []Phase{
			{Profile: ProfileMostlyRead, Ops: 100},
			{Profile: ProfileMostlyWrite, Ops: 100},
		},
	}
	in, err := BuildInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Ops) != 200 {
		t.Fatalf("phased input has %d ops, want 200", len(in.Ops))
	}
	readsIn := func(ops []OpSpec) int {
		n := 0
		for _, op := range ops {
			if op.Read {
				n++
			}
		}
		return n
	}
	if r := readsIn(in.Ops[:100]); r < 70 {
		t.Errorf("read-heavy phase produced %d/100 reads", r)
	}
	if r := readsIn(in.Ops[100:]); r > 30 {
		t.Errorf("write-heavy phase produced %d/100 reads", r)
	}
	// Exactly one marker per phase rides along in the schedule.
	markers := 0
	for _, ev := range in.Events {
		if ev.Workload != "" {
			markers++
		}
	}
	if markers != 2 {
		t.Errorf("input carries %d workload markers, want 2", markers)
	}
}
