package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"arbor/internal/cluster"
)

// TestSimCatchUpDeterministic: catch-up runs to completion at event
// boundaries, so recovering through it must not cost the harness its core
// promise — identical traces and verdicts across identical runs.
func TestSimCatchUpDeterministic(t *testing.T) {
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

// TestSimCampaignHoldsMargin: every recovery replays the journal and then
// catches up, so after the final recovery every physical level holds the
// newest acknowledged version of every key — the campaign must see zero
// durability-margin violations.
func TestSimCampaignHoldsMargin(t *testing.T) {
	rep, err := Campaign(testSpec(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("campaign found a violation (run %d, seed %d):\n%v\nschedule: %s",
			rep.Failure.Run, rep.Failure.Seed, rep.Failure.Violations, cluster.Schedule(rep.Failure.Input.Events))
	}
}

// scheduled is a run of the 1-3-5 tree (physical levels {1,2,3} and
// {4,...,8}) with no generated faults, only the given schedule.
func scheduled(t *testing.T, seed int64, schedule string) Spec {
	t.Helper()
	sched, err := cluster.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Tree: "1-3-5", Seed: seed, Schedule: sched}
}

// TestCatchUpBoundExemptsBlockedSync: a catch-up whose only source level is
// out of reach waits for the fault schedule, not for the protocol, so it is
// no catch-up-bound violation; the final recovery heals first and still
// holds the bound.
func TestCatchUpBoundExemptsBlockedSync(t *testing.T) {
	partitioned := scheduled(t, 20261031, "3ms:crash=4;38ms:partition=1,2,3,6,7,8;42ms:recoverall")
	alone := scheduled(t, 1, "33ms:partition=1;35ms:recover=1")
	alone.Phases = []Phase{{Profile: ProfileMostlyRead, Ops: 20}, {Profile: ProfileMostlyWrite, Ops: 20}}
	alone.Keep = []int{}
	for name, spec := range map[string]Spec{
		"recovered site's source level partitioned away": partitioned,
		"live site recovered while partitioned alone":    alone,
	} {
		t.Run(name, func(t *testing.T) {
			in, err := BuildInput(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(in)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Errorf("violations: %v", res.Violations)
			}
		})
	}
}

// TestSkipWALReplayCaughtWithoutRestart: the injected replay bug shows on a
// per-site recovery, with no restart in the schedule. A whole level crashes
// and comes back with its journals lost; catch-up pulls only from the other
// level, so the writes that landed on the crashed one are gone.
func TestSkipWALReplayCaughtWithoutRestart(t *testing.T) {
	spec := scheduled(t, 1, "20ms:crash=1,2,3;21ms:recover=1,2,3")
	spec.Profile, spec.Keys = ProfileMostlyWrite, 2
	in, err := BuildInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("the run fails without the bug: %v", res.Violations)
	}
	in.Spec.SkipWALReplay = true
	if res, err = Execute(in); err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Error("a level that lost its journals recovered without a violation")
	}
}

// TestSimVerdictRepeats: a failing run's verdict, like its trace, is a
// function of its input. A level that lost its journals misses the
// acknowledged writes of many keys, and the durability checks report them
// in the same order on every replay of the input.
func TestSimVerdictRepeats(t *testing.T) {
	spec := scheduled(t, 1, "40ms:crash=1,2,3;41ms:recover=1,2,3")
	spec.Profile, spec.Keys, spec.Ops = ProfileMostlyWrite, 32, 48
	spec.SkipWALReplay = true
	in, err := BuildInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations) < 8 {
		t.Fatalf("want violations on many keys, got %v", first.Violations)
	}
	for i := 0; i < 2; i++ {
		res, err := Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Violations, first.Violations) {
			t.Fatalf("replay %d of one input reports\n%v\nwhere the first run reported\n%v", i+1, res.Violations, first.Violations)
		}
	}
}

// opsFrom returns the trace lines of the ops at index from or later.
func opsFrom(trace []string, from int) []string {
	var out []string
	for _, line := range trace {
		// Op lines start with their index; event lines ("     ! …") do not.
		var i int
		if _, err := fmt.Sscanf(line, "%d", &i); err == nil && i >= from {
			out = append(out, line)
		}
	}
	return out
}

// TestSimAppliesEveryActionOfAnEvent: an event that carries a restart or a
// phase marker applies its other actions too. A recoverall beside a marker
// brings the crashed level back, so no op after it fails; a saturate beside
// a restart outlives the power-cycle, so the saturated level sheds every
// read after it.
func TestSimAppliesEveryActionOfAnEvent(t *testing.T) {
	run := func(t *testing.T, schedule string) *Result {
		t.Helper()
		spec := scheduled(t, 3, schedule)
		spec.Ops, spec.Profile = 40, ProfileMostlyRead
		in, err := BuildInput(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("violations: %v", res.Violations)
		}
		return res
	}
	t.Run("recoverall beside a phase marker", func(t *testing.T) {
		res := run(t, "10ms:crash=1,2,3;20ms:recoverall+workload=calm")
		for _, line := range opsFrom(res.Trace, 20) {
			if strings.HasSuffix(line, "-> unavailable") || strings.HasSuffix(line, "-> overloaded") {
				t.Errorf("an op failed after the recovery: %s", line)
			}
		}
	})
	t.Run("saturate beside a restart", func(t *testing.T) {
		res := run(t, "10ms:restart+saturate=1,2,3")
		if res.Sheds == 0 {
			t.Error("the saturated level shed nothing")
		}
		for _, line := range opsFrom(res.Trace, 10) {
			if strings.Contains(line, " r ") && !strings.HasSuffix(line, "-> overloaded") {
				t.Errorf("a read past the saturate was not shed: %s", line)
			}
		}
	})
}

// TestSimRefusedEventIsTraced: an event the cluster refuses — here a
// reconfiguration while a site is down — becomes a trace line naming the
// error, and the run goes on over the tree it had.
func TestSimRefusedEventIsTraced(t *testing.T) {
	in, err := BuildInput(scheduled(t, 1, "10ms:crash=2;20ms:reconfigure=1-2-2-2-2"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(in)
	if err != nil {
		t.Fatalf("a refused event aborted the run: %v", err)
	}
	const want = "     ! refused: cluster: reconfigure requires all replicas up; site 2 is crashed"
	if !slices.Contains(res.Trace, want) {
		t.Errorf("trace has no line %q:\n%s", want, strings.Join(res.Trace, "\n"))
	}
	if res.OpsRun != len(in.Ops) || res.FaultsApplied != 2 || res.FinalSpec != "1-3-5" {
		t.Errorf("ran %d of %d ops and %d events, final spec %s; want all ops, 2 events, 1-3-5",
			res.OpsRun, len(in.Ops), res.FaultsApplied, res.FinalSpec)
	}
	if res.Failed() {
		t.Errorf("violations: %v", res.Violations)
	}
}
