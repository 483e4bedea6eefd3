package sim

import (
	"reflect"
	"strings"
	"testing"

	"arbor/internal/cluster"
)

// overloadInput builds a calm run (no generated faults) with the whole
// first physical level saturated for a mid-run window: every read loses its
// level-0 candidate and every write loses version discovery, so operations
// in the window fail with the typed overload error and the replicas rack up
// sheds. The window closes before the run ends and the harness disarms
// overload faults before final judgment, so the checker must stay green.
func overloadInput(t *testing.T, seed int64) Input {
	t.Helper()
	spec := testSpec(seed)
	spec.Faults = 0
	sched, err := cluster.ParseSchedule("5ms:saturate=1,2,3;20ms:unsaturate=1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	spec.Schedule = sched
	in, err := BuildInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBuildInputOverloadEvents pins the Spec.Overload generator: the
// derived stretch always closes its saturate window with a matching
// unsaturate, pairs any drain with a later recovery, and — because it
// draws from the tail of the fault rng — never reshuffles the base
// schedule the same seed generates with overload off.
func TestBuildInputOverloadEvents(t *testing.T) {
	base := testSpec(3)
	over := base
	over.Overload = true

	plain, err := BuildInput(base)
	if err != nil {
		t.Fatal(err)
	}
	in, err := BuildInput(over)
	if err != nil {
		t.Fatal(err)
	}

	var sat, unsat, drain, recovered int
	overOnly := in.Events[:0:0]
	for _, ev := range in.Events {
		if len(ev.Saturate) > 0 {
			sat++
			overOnly = append(overOnly, ev)
		}
		if len(ev.Unsaturate) > 0 {
			unsat++
			overOnly = append(overOnly, ev)
		}
		if len(ev.Drain) > 0 {
			drain++
			overOnly = append(overOnly, ev)
		}
	}
	if sat != 1 || unsat != 1 {
		t.Fatalf("overload stretch = %d saturate / %d unsaturate windows, want exactly 1/1", sat, unsat)
	}
	if !reflect.DeepEqual(overOnly[0].Saturate, overOnly[1].Unsaturate) || overOnly[0].At >= overOnly[1].At {
		t.Errorf("saturate window %v@%v not closed by matching unsaturate %v@%v",
			overOnly[0].Saturate, overOnly[0].At, overOnly[1].Unsaturate, overOnly[1].At)
	}
	if drain > 0 {
		for _, ev := range in.Events {
			if len(ev.Recover) > 0 {
				recovered++
			}
		}
		if recovered == 0 {
			t.Error("drain generated without any recovery event")
		}
	}
	// saturate + unsaturate + (drain + its recovery) ride on top of the
	// untouched base schedule.
	if got, want := len(in.Events), len(plain.Events)+2+2*drain; got != want {
		t.Errorf("overload run has %d events, want %d (base %d + overload stretch)", got, want, len(plain.Events))
	}
}

func TestSimOverloadShedsCleanly(t *testing.T) {
	res, err := Execute(overloadInput(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sheds == 0 {
		t.Error("saturated window produced no sheds")
	}
	if res.Overloaded == 0 {
		t.Error("no operation was classified as overloaded despite a fully-shedding level")
	}
	if res.Overloaded > res.Failures {
		t.Errorf("Overloaded = %d exceeds Failures = %d (it must be a subset)", res.Overloaded, res.Failures)
	}
	if len(res.Violations) > 0 {
		t.Errorf("overload sheds are clean failures but the checker found %d violations (first: %v)",
			len(res.Violations), res.Violations[0])
	}
	if !strings.Contains(strings.Join(res.Trace, "\n"), "-> overloaded") {
		t.Error("trace never recorded an overloaded outcome")
	}
	t.Logf("%d ops: %d replica sheds, %d ops overloaded, %d failed total, %d violations",
		res.OpsRun, res.Sheds, res.Overloaded, res.Failures, len(res.Violations))
}

func TestSimOverloadDeterministic(t *testing.T) {
	in := overloadInput(t, 5)
	r1, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Trace, r2.Trace) {
		t.Errorf("overload traces differ between identical runs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(r1.Trace, "\n"), strings.Join(r2.Trace, "\n"))
	}
	if r1.Sheds != r2.Sheds || r1.Overloaded != r2.Overloaded {
		t.Errorf("overload accounting differs: (%d, %d) vs (%d, %d)",
			r1.Sheds, r1.Overloaded, r2.Sheds, r2.Overloaded)
	}
}
