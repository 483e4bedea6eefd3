package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/tree"
)

func TestParseSchedule(t *testing.T) {
	sched, err := ParseSchedule("50ms:crash=1,2;10ms:recoverall;200ms:partition=1,2/3;300ms:heal;150ms:recover=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 5 {
		t.Fatalf("%d events", len(sched))
	}
	// Sorted by offset.
	for i := 1; i < len(sched); i++ {
		if sched[i].At < sched[i-1].At {
			t.Fatalf("events not sorted: %v", sched)
		}
	}
	if sched[0].At != 10*time.Millisecond || !sched[0].RecoverAll {
		t.Errorf("first event = %+v", sched[0])
	}
	if len(sched[1].Crash) != 2 || sched[1].Crash[0] != 1 {
		t.Errorf("crash event = %+v", sched[1])
	}
	if len(sched[2].Recover) != 1 || sched[2].Recover[0] != 4 {
		t.Errorf("recover event = %+v", sched[2])
	}
	if len(sched[3].Partition) != 2 {
		t.Errorf("partition event = %+v", sched[3])
	}
	if !sched[4].Heal {
		t.Errorf("heal event = %+v", sched[4])
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	const in = "10ms:recoverall;50ms:crash=1,2;150ms:recover=4;200ms:partition=1,2/3;300ms:heal;400ms:restart"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.String(); got != in {
		t.Errorf("Schedule.String() = %q, want %q", got, in)
	}
	again, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(sched) {
		t.Fatalf("round trip changed event count: %d vs %d", len(again), len(sched))
	}
	if !again[5].Restart {
		t.Errorf("restart event lost in round trip: %+v", again[5])
	}
}

func TestApplyEventRestart(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.ApplyEvent(context.Background(), Event{Crash: []tree.SiteID{2}}); err != nil {
		t.Fatal(err)
	}
	if !c.Replica(tree.SiteID(2)).Crashed() {
		t.Fatal("ApplyEvent crash did not take effect")
	}
	if err := c.ApplyEvent(context.Background(), Event{Restart: true}); err != nil {
		t.Fatal(err)
	}
	if c.Replica(tree.SiteID(2)).Crashed() {
		t.Error("restart left site 2 crashed")
	}
	awaitSync(t, c)
	rd, err := cli.Read(ctx, "k")
	if err != nil || string(rd.Value) != "v" {
		t.Errorf("read after restart = %q, %v; want v", rd.Value, err)
	}
}

// TestScheduleOverloadVerbs covers the overload-fault grammar: saturate,
// unsaturate, slowsite (with per-site durations) and drain parse into the
// right fields and render back to the same string.
func TestScheduleOverloadVerbs(t *testing.T) {
	const in = "10ms:saturate=1,2;20ms:slowsite=3:50ms,4:1ms;30ms:unsaturate=1;40ms:slowsite=3:0s;50ms:drain=2"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 5 {
		t.Fatalf("%d events", len(sched))
	}
	if len(sched[0].Saturate) != 2 || sched[0].Saturate[0] != 1 || sched[0].Saturate[1] != 2 {
		t.Errorf("saturate event = %+v", sched[0])
	}
	want := []SiteSlowdown{{Site: 3, By: 50 * time.Millisecond}, {Site: 4, By: time.Millisecond}}
	if len(sched[1].SlowSite) != 2 || sched[1].SlowSite[0] != want[0] || sched[1].SlowSite[1] != want[1] {
		t.Errorf("slowsite event = %+v", sched[1])
	}
	if len(sched[2].Unsaturate) != 1 || sched[2].Unsaturate[0] != 1 {
		t.Errorf("unsaturate event = %+v", sched[2])
	}
	if len(sched[3].SlowSite) != 1 || sched[3].SlowSite[0].By != 0 {
		t.Errorf("slowsite clear event = %+v", sched[3])
	}
	if len(sched[4].Drain) != 1 || sched[4].Drain[0] != 2 {
		t.Errorf("drain event = %+v", sched[4])
	}
	if got := sched.String(); got != in {
		t.Errorf("Schedule.String() = %q, want %q", got, in)
	}
}

// TestApplyEventOverload drives the overload verbs against a live cluster:
// saturating a site makes it shed, unsaturating restores service, and a
// drain takes it out of rotation without losing acknowledged writes.
func TestApplyEventOverload(t *testing.T) {
	c := newCluster(t, "1-3-5")
	cli := newClient(t, c)
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.ApplyEvent(context.Background(), Event{Saturate: []tree.SiteID{2}}); err != nil {
		t.Fatal(err)
	}
	// A write pinned to site 2's level is shed there and falls back.
	if wr, err := cli.WriteAt(ctx, "k", []byte("v"), 0); err != nil || wr.Level == 0 || c.Replica(2).Stats().Sheds == 0 {
		t.Fatalf("write pinned to a saturated level landed on level %d (%v) after %d sheds; want a shed and a fallback",
			wr.Level, err, c.Replica(2).Stats().Sheds)
	}
	// The protocol reads around the shedding site.
	if rd, err := cli.Read(ctx, "k"); err != nil || string(rd.Value) != "v" {
		t.Errorf("read under saturation = %q, %v; want v", rd.Value, err)
	}
	if err := c.ApplyEvent(context.Background(), Event{Unsaturate: []tree.SiteID{2}}); err != nil {
		t.Fatal(err)
	}
	if wr, err := cli.WriteAt(ctx, "k", []byte("v"), 0); err != nil || wr.Level != 0 {
		t.Errorf("write pinned to level 0 after unsaturate landed on level %d (%v)", wr.Level, err)
	}
	if err := c.ApplyEvent(context.Background(), Event{Drain: []tree.SiteID{3}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Replica(tree.SiteID(3)).Health(); got.String() != "down" {
		t.Errorf("drained site health = %v, want down", got)
	}
	if rd, err := cli.Read(ctx, "k"); err != nil || string(rd.Value) != "v" {
		t.Errorf("read after drain = %q, %v; want v", rd.Value, err)
	}
}

func TestParseScheduleEmpty(t *testing.T) {
	sched, err := ParseSchedule("  ")
	if err != nil || sched != nil {
		t.Errorf("empty schedule = %v, %v", sched, err)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, s := range []string{
		"nonsense",
		"10ms:explode",
		"xx:crash=1",
		"10ms:crash=abc",
		"10ms:crash=",
		"10ms:partition=1/x",
		"10ms:saturate=",
		"10ms:slowsite=3",
		"10ms:slowsite=3:xx",
		"10ms:slowsite=3:-5ms",
		"10ms:drain=abc",
	} {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", s)
		}
	}
}

// TestApplyEventUnknownSite: every verb that names a site refuses one the
// cluster does not have with ErrUnknownSite, and an event naming one among
// known sites applies none of its actions.
func TestApplyEventUnknownSite(t *testing.T) {
	c := newCluster(t, "1-3-5")
	bad := []tree.SiteID{99}
	for _, ev := range []Event{
		{Crash: bad},
		{Recover: bad},
		{Saturate: bad},
		{Unsaturate: bad},
		{SlowSite: []SiteSlowdown{{Site: 99, By: time.Millisecond}}},
		{Drain: bad},
		{Crash: []tree.SiteID{1}, Drain: []tree.SiteID{2, 99}},
	} {
		if err := c.ApplyEvent(context.Background(), ev); !errors.Is(err, ErrUnknownSite) {
			t.Errorf("ApplyEvent(%s) = %v, want ErrUnknownSite", ev, err)
		}
	}
	for _, s := range []tree.SiteID{1, 2} {
		if h := c.Replica(s).Health(); h != replica.HealthLive {
			t.Errorf("site %d is %s after a refused event", s, h)
		}
	}
}

// TestMultiActionEventRoundTrip pins the fix for Event.String silently
// dropping secondary actions: an event carrying several actions renders
// all of them ('+'-joined, in apply order) and parses back identically.
func TestMultiActionEventRoundTrip(t *testing.T) {
	ev := Event{
		At:        10 * time.Millisecond,
		Crash:     []tree.SiteID{1, 2},
		Heal:      true,
		Workload:  "calm",
		Partition: [][]tree.SiteID{{3, 4}, {5}},
	}
	const want = "10ms:crash=1,2+partition=3,4/5+heal+workload=calm"
	if got := ev.String(); got != want {
		t.Fatalf("Event.String() = %q, want %q", got, want)
	}
	sched, err := ParseSchedule(ev.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", ev.String(), err)
	}
	if len(sched) != 1 {
		t.Fatalf("multi-action event parsed into %d events", len(sched))
	}
	got := sched[0]
	if len(got.Crash) != 2 || got.Crash[0] != 1 || got.Crash[1] != 2 ||
		!got.Heal || got.Workload != "calm" || len(got.Partition) != 2 {
		t.Errorf("round trip lost actions: %+v", got)
	}
	if got.String() != want {
		t.Errorf("second render = %q, want %q", got.String(), want)
	}
}

// TestMultiActionEveryAction renders an event with every action armed and
// checks nothing is dropped on the way back.
func TestMultiActionEveryAction(t *testing.T) {
	ev := Event{
		At:         time.Second,
		Crash:      []tree.SiteID{1},
		Recover:    []tree.SiteID{2},
		RecoverAll: true,
		Partition:  [][]tree.SiteID{{4}},
		Heal:       true,
		Restart:    true,
		Saturate:   []tree.SiteID{5},
		Unsaturate: []tree.SiteID{6},
		SlowSite:   []SiteSlowdown{{Site: 7, By: 50 * time.Millisecond}},
		Drain:      []tree.SiteID{8},
		Workload:   "storm",
	}
	sched, err := ParseSchedule(ev.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", ev.String(), err)
	}
	if len(sched) != 1 {
		t.Fatalf("parsed into %d events", len(sched))
	}
	if sched[0].String() != ev.String() {
		t.Errorf("round trip changed rendering: %q vs %q", sched[0].String(), ev.String())
	}
}

func TestParseScheduleRejectsDuplicateAction(t *testing.T) {
	for _, s := range []string{
		"10ms:crash=1+crash=2",
		"10ms:heal+heal",
		"10ms:workload=a+workload=b",
	} {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want duplicate-action error", s)
		}
	}
}

func TestParseScheduleRejectsEmptyActionSegment(t *testing.T) {
	for _, s := range []string{"10ms:+heal", "10ms:heal+", "10ms:crash=1++heal"} {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", s)
		}
	}
}
