package cluster

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule ensures the schedule parser never panics, that every
// accepted schedule is time-sorted with well-formed events, and that the
// parse → format → parse round trip is a fixpoint (the shrinker serializes
// minimized schedules through Schedule.String, so format must stay within
// the parseable grammar and preserve meaning exactly).
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"50ms:crash=1,2;150ms:recoverall",
		"1s:partition=1,2/3,4;2s:heal",
		"10ms:recover=3",
		"10ms:recoverfast=3",
		"50ms:crash=1;120ms:recoverall+recover=2",
		"7ms:restart",
		"10ms:crash=1,2+heal+workload=calm",
		"1s:recoverall+restart",
		"10ms:crash=1+crash=2",
		"10ms:heal+",
		"5ms:workload=mostly-write",
		"3ms:workload=read-heavy;9ms:workload=write-heavy",
		"10ms:workload=",
		"10ms:saturate=3;50ms:unsaturate=3",
		"10ms:saturate=1,2+workload=storm",
		"5ms:slowsite=3:50ms",
		"5ms:slowsite=3:50ms,4:1ms;20ms:slowsite=3:0s",
		"100ms:drain=2",
		"10ms:drain=1,2+recover=3",
		"10ms:crash=1+checkpoint;20ms:recover=1+checkpoint",
		"10ms:reconfigure=1-3-5+4",
		"10ms:reconfigure=1-8+heal;20ms:reconfigure=1-x",
		"10ms:slowsite=3",
		"10ms:slowsite=3:xx",
		"10ms:saturate=",
		"",
		"bad",
		"10ms:crash=",
		"x:heal",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sched, err := ParseSchedule(input)
		if err != nil {
			return
		}
		for i, ev := range sched {
			if i > 0 && ev.At < sched[i-1].At {
				t.Fatalf("schedule %q not sorted", input)
			}
			if !ev.RecoverAll && !ev.Heal && !ev.Restart && !ev.Checkpoint && ev.Workload == "" && ev.Reconfigure == nil &&
				len(ev.Crash) == 0 && len(ev.Recover) == 0 && len(ev.Partition) == 0 &&
				len(ev.Saturate) == 0 && len(ev.Unsaturate) == 0 && len(ev.SlowSite) == 0 && len(ev.Drain) == 0 {
				t.Fatalf("schedule %q produced an empty event", input)
			}
		}
		formatted := sched.String()
		again, err := ParseSchedule(formatted)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", formatted, input, err)
		}
		if !reflect.DeepEqual(sched, again) {
			t.Fatalf("round trip of %q changed the schedule:\n first: %#v\nsecond: %#v", input, sched, again)
		}
	})
}
