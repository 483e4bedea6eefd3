package sim

import (
	"reflect"
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
