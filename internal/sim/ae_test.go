package sim

import (
	"reflect"
	"strings"
	"testing"

	"arbor/internal/cluster"
)

// aeConfig is testConfig with the anti-entropy recovery path armed.
func aeConfig(seed int64) Config {
	cfg := testConfig(seed)
	cfg.AntiEntropy = true
	return cfg
}

// TestSimAntiEntropyDeterministic: catch-up runs to completion at event
// boundaries, so arming anti-entropy must not cost the harness its core
// promise — identical traces and verdicts across identical runs.
func TestSimAntiEntropyDeterministic(t *testing.T) {
	in, err := BuildInput(aeConfig(3))
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
		t.Errorf("traces differ between identical anti-entropy runs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(r1.Trace, "\n"), strings.Join(r2.Trace, "\n"))
	}
	if !reflect.DeepEqual(r1.Violations, r2.Violations) {
		t.Errorf("verdicts differ: %v vs %v", r1.Violations, r2.Violations)
	}
	if len(r1.MarginGaps) != 0 {
		t.Errorf("anti-entropy run filled MarginGaps (%v); gaps must be violations there", r1.MarginGaps)
	}
}

// TestSimAntiEntropyCampaignHoldsMargin is the tentpole invariant: with
// anti-entropy on, after the final converging sync pass every physical level
// holds the newest acknowledged version of every key — the campaign must see
// zero durability-margin violations.
func TestSimAntiEntropyCampaignHoldsMargin(t *testing.T) {
	rep, err := Campaign(aeConfig(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("anti-entropy campaign found a violation (run %d, seed %d):\n%v\nschedule: %s",
			rep.Failure.Run, rep.Failure.Seed, rep.Failure.Violations, cluster.Schedule(rep.Failure.Input.Events))
	}
	if rep.MarginGaps != 0 || rep.GappedRuns != 0 {
		t.Errorf("anti-entropy campaign reported %d gaps over %d runs; convergence should leave none",
			rep.MarginGaps, rep.GappedRuns)
	}
}

// TestSimInstantRecoveryLeavesGaps: the same seeds without anti-entropy end
// with thinner margins — a write lands on all sites of ONE level, so once
// faults steer writes around, some level misses the newest version and
// nothing ever back-fills it. The gaps are reported, not violations: the
// protocol stays correct, which is exactly what makes them worth measuring.
func TestSimInstantRecoveryLeavesGaps(t *testing.T) {
	rep, err := Campaign(testConfig(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("instant-recovery campaign found a violation: %v", rep.Failure.Violations)
	}
	if rep.MarginGaps == 0 {
		t.Error("instant-recovery campaign reported zero margin gaps; single-level writes should leave some level behind")
	}
}

// TestAntiEntropySchedulesAlign: the two modes must inject the same fault
// ticks against the same sites and differ only in the recovery verb, so an
// experiment comparing them is apples-to-apples.
func TestAntiEntropySchedulesAlign(t *testing.T) {
	off, err := BuildInput(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	on, err := BuildInput(aeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Ops, on.Ops) {
		t.Fatal("op streams differ between modes")
	}
	if len(off.Events) != len(on.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(off.Events), len(on.Events))
	}
	for i := range off.Events {
		a, b := off.Events[i], on.Events[i]
		// Fold the sync verbs back onto the instant ones: after that the
		// events must be identical.
		b.Recover, b.RecoverSync = b.RecoverSync, nil
		b.RecoverAll, b.RecoverAllSync = b.RecoverAll || b.RecoverAllSync, false
		if !reflect.DeepEqual(a, b) {
			t.Errorf("event %d differs beyond the recovery verb:\n%s\n%s", i, a.String(), on.Events[i].String())
		}
	}
}
