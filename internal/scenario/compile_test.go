package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/cluster"
	"arbor/internal/sim"
)

// TestCompileLowersOntoSim pins the lowering contract: unset faults mean
// none, the latency matrix reaches the run as declared (sim lowers it onto
// sites when it builds the cluster), and explicit fault lines merge
// tick-ordered with the generated schedule (here: with the phase markers).
func TestCompileLowersOntoSim(t *testing.T) {
	spec, err := Parse(strings.Join([]string{
		"tree 1-3-5",
		"seed 5",
		"latency base 1ms",
		"latency level 0 2ms",
		"latency level 1 4ms",
		"latency site 4 8ms",
		"phase mostly-read 20",
		"phase mostly-write 30",
		"fault 10ms:crash=2",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.BuildInput(spec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec.Faults != 0 {
		t.Errorf("Faults = %d, want 0 (scenarios inject only what they declare)", c.Spec.Faults)
	}
	want := sim.Latency{
		Base:   time.Millisecond,
		Levels: []sim.LevelRTT{{Level: 0, RTT: 2 * time.Millisecond}, {Level: 1, RTT: 4 * time.Millisecond}},
		Sites:  []sim.SiteRTT{{Site: 4, RTT: 8 * time.Millisecond}},
	}
	if !reflect.DeepEqual(c.Spec.Latency, want) {
		t.Errorf("Latency = %+v, want %+v", c.Spec.Latency, want)
	}
	// The merged schedule holds the two phase markers and the crash, in
	// tick order.
	var ticks []time.Duration
	crashes := 0
	for _, ev := range c.Events {
		ticks = append(ticks, ev.At)
		if len(ev.Crash) > 0 {
			crashes++
		}
	}
	if crashes != 1 || len(ticks) != 3 {
		t.Fatalf("merged schedule = %d events with %d crashes, want 3 and 1", len(ticks), crashes)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] < ticks[i-1] {
			t.Errorf("merged schedule out of order: %v", ticks)
		}
	}
	if len(c.Ops) != 50 {
		t.Errorf("op stream has %d ops, want 50", len(c.Ops))
	}
}

// TestCompileExpandsRamps: a ramp becomes interpolated numeric-profile
// steps — visible as one workload= marker per step — whose endpoints are
// the From and To fractions and whose op counts sum to the ramp's.
func TestCompileExpandsRamps(t *testing.T) {
	steps := func(text string) (profiles []sim.Profile, ops []int) {
		t.Helper()
		spec, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.BuildInput(spec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range c.Events {
			if sim.IsMarker(ev) {
				profiles = append(profiles, sim.Profile(ev.Workload))
				ops = append(ops, int(ev.At/time.Millisecond))
			}
		}
		ops = append(ops, len(c.Ops))
		for i := range profiles {
			ops[i] = ops[i+1] - ops[i]
		}
		return profiles, ops[:len(profiles)]
	}
	ps, ops := steps("tree 1-8\nramp mostly-read mostly-write 42 steps 4\n")
	if len(ps) != 4 {
		t.Fatalf("ramp expanded to %d phases, want 4: %v", len(ps), ps)
	}
	total := 0
	for _, n := range ops {
		total += n
	}
	if total != 42 {
		t.Errorf("ramp ops sum to %d, want 42", total)
	}
	first, err := ps[0].ReadFraction()
	if err != nil || first != 0.9 {
		t.Errorf("first step reads %v of the time (err %v), want 0.9", first, err)
	}
	last, err := ps[3].ReadFraction()
	if err != nil || last != 0.1 {
		t.Errorf("last step reads %v of the time (err %v), want 0.1", last, err)
	}
	mid, err := ps[1].ReadFraction()
	if err != nil || mid <= 0.1 || mid >= 0.9 {
		t.Errorf("middle step reads %v of the time (err %v), want strictly between", mid, err)
	}
	// A default-steps ramp shorter than the default still expands.
	if ps, _ := steps("tree 1-8\nramp mostly-read mostly-write 2\n"); len(ps) != 2 {
		t.Errorf("2-op ramp expanded to %d phases, want 2", len(ps))
	}
}

// TestCheckExpectations drives the checker over a synthetic result so
// every expect kind's pass and fail sides are covered without a run.
func TestCheckExpectations(t *testing.T) {
	spec, err := Parse(strings.Join([]string{
		"tree 1-8",
		"ops 10",
		"adapt",
		"expect no-history-violations",
		"expect adapt-decisions >=1",
		"expect reconfigurations 1",
		"expect failures <=3",
		"expect final-spec 1-2-2",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	pass := &sim.Result{
		Violations:       []sim.Violation{{Rule: "durability", Detail: "not a history rule"}},
		AdaptDecisions:   []adapt.Decision{{}},
		Reconfigurations: 1,
		Failures:         3,
		FinalSpec:        "1-2-2",
	}
	if fails := spec.Check(pass); len(fails) != 0 {
		t.Fatalf("Check on a passing result = %v", fails)
	}
	fail := &sim.Result{
		Violations:       []sim.Violation{{Rule: "monotonic-reads", Detail: "went backwards"}},
		Reconfigurations: 2,
		Failures:         4,
		FinalSpec:        "1-8",
	}
	fails := spec.Check(fail)
	if len(fails) != 5 {
		t.Fatalf("Check found %d failures, want 5:\n%s", len(fails), strings.Join(fails, "\n"))
	}
	for _, want := range []string{
		"expect no-history-violations: got 1 (first: sim: monotonic-reads: went backwards)",
		"expect adapt-decisions >=1: got 0",
		"expect reconfigurations 1: got 2",
		"expect failures <=3: got 4",
		"expect final-spec 1-2-2: got 1-8",
	} {
		found := false
		for _, f := range fails {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Check missing %q in:\n%s", want, strings.Join(fails, "\n"))
		}
	}
}

// TestScenarioGoldenTraces replays four checked-in scenarios end to end
// and pins the hash of the op-by-op trace. These hashes are the
// harness's determinism promise extended through the scenario compiler:
// any change to parsing, lowering, generation or execution that alters a
// single op or fault application shows up here.
func TestScenarioGoldenTraces(t *testing.T) {
	for name, want := range goldenTraces {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := Load(filepath.Join("..", "..", "scenarios", name+".arb"))
			if err != nil {
				t.Fatal(err)
			}
			c, err := sim.BuildInput(spec.Spec)
			if err != nil {
				t.Fatal(err)
			}
			checkTraceHash(t, c, want)
		})
	}
}

// goldenTraces pins the trace hash of four corpus scenarios. The last one's
// was taken on the parent of the floor-hinted read (ISSUE 20), where every
// level of a read shipped its value: what a read returns did not change.
// partition-anti-entropy's was re-pinned once when every recovery began to
// catch up: the one line that moved is its recovery event, now written
// "! 30ms:recover=2".
var goldenTraces = map[string]string{
	"chaos-mostly-read":      "6fcabaa0b34ae4ece47c2978d3929510bce591fa3100f4a7affa79c5c364ece6",
	"workload-flip-adapt":    "9142b9c7f83caa7eece015384cb500fc199f11d30ca804217e0723bb45fe9535",
	"partition-anti-entropy": "128436982a39d949a3d53ba24fef0b1ed7232cbc8926e4317fba9f3c5b74babd",
	"hinted-read-instant":    "3e36ae99a67c1d3d6c76cc1d0881a8735fdcd24118780a4f08d860ec0e46d3be",
}

func checkTraceHash(t *testing.T, in sim.Input, want string) {
	t.Helper()
	res, err := sim.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256([]byte(strings.Join(res.Trace, "\n")))
	if got := hex.EncodeToString(h[:]); got != want {
		t.Errorf("trace hash = %s, want %s (%d trace lines)\nfirst lines:\n%s",
			got, want, len(res.Trace), strings.Join(res.Trace[:min(5, len(res.Trace))], "\n"))
	}
}

// reproduce writes the input as a reproducer, checks the text is a
// canonical scenario, and compiles what reading it back yields.
func reproduce(t *testing.T, in sim.Input) (string, sim.Input) {
	t.Helper()
	text := FromInput(in).String()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("reproducer does not parse: %v\n%s", err, text)
	}
	if got := back.String(); got != text {
		t.Fatalf("reproducer is not canonical:\nwritten:\n%s\nrendered:\n%s", text, got)
	}
	if len(back.Expects) != 0 || back.Faults != 0 {
		t.Errorf("reproducer declares expects or generated faults:\n%s", text)
	}
	c, err := sim.BuildInput(back.Spec)
	if err != nil {
		t.Fatalf("reproducer does not compile: %v\n%s", err, text)
	}
	return text, c
}

// TestReproducerRoundTrip: a run written as a .arb reproducer and read
// back is the same run — the same ops and the same events, phase markers
// included — for every corpus scenario (the golden ones also replay
// to their pinned trace hashes) and for generated inputs covering each
// thing a reproducer has to carry.
func TestReproducerRoundTrip(t *testing.T) {
	check := func(t *testing.T, in sim.Input, wantLines ...string) sim.Input {
		t.Helper()
		text, again := reproduce(t, in)
		for _, want := range wantLines {
			if !strings.Contains("\n"+text, "\n"+want+"\n") {
				t.Errorf("reproducer lacks the line %q:\n%s", want, text)
			}
		}
		if !reflect.DeepEqual(in.Ops, again.Ops) {
			t.Errorf("ops differ after the round trip:\n%+v\n%+v\n%s", in.Ops, again.Ops, text)
		}
		if !reflect.DeepEqual(in.Events, again.Events) {
			t.Errorf("events differ after the round trip:\n%v\n%v\n%s", in.Events, again.Events, text)
		}
		return again
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.arb"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".arb")
		t.Run("corpus/"+name, func(t *testing.T) {
			t.Parallel()
			spec, err := Load(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sim.BuildInput(spec.Spec)
			if err != nil {
				t.Fatal(err)
			}
			again := check(t, c)
			if want, ok := goldenTraces[name]; ok {
				checkTraceHash(t, again, want)
			}
		})
	}
	base := sim.Spec{
		Seed: 9, Ops: 30, Faults: 4, Keys: 3, Clients: 2,
		Timeout: 30 * time.Millisecond, LockTTL: 500 * time.Millisecond,
	}
	generated := []struct {
		name  string
		tweak func(*sim.Spec)
		lines []string
	}{
		{"phases+adapt", func(c *sim.Spec) {
			c.Tree, c.Adapt = "1-8", true
			c.Phases = []sim.Phase{{Profile: sim.ProfileMostlyRead, Ops: 40}, {Ops: 30}, {Profile: "r0.7", Ops: 20, Zipf: 1.2}}
		}, []string{"tree 1-8", "adapt every 10", "phase mostly-read 40", "phase balanced 30", "phase r0.7 20 zipf 1.2"}},
		{"latency+zipf+sitertt", func(c *sim.Spec) {
			c.Zipf = 1.4
			c.Latency = sim.Latency{Base: time.Millisecond, Jitter: 500 * time.Microsecond, Dist: "pareto",
				Sites: []sim.SiteRTT{{Site: 1, RTT: 2 * time.Millisecond}, {Site: 5, RTT: 8 * time.Millisecond}}}
		}, []string{"zipf 1.4", "latency base 1ms", "latency jitter 500µs", "latency dist pareto", "latency site 1 2ms", "latency site 5 8ms"}},
		{"overload", func(c *sim.Spec) { c.Overload = true }, nil},
		{"bug", func(c *sim.Spec) { c.SkipWALReplay = true }, []string{"bug skip-wal-replay"}},
	}
	for _, g := range generated {
		t.Run(g.name, func(t *testing.T) {
			spec := base
			g.tweak(&spec)
			in, err := sim.BuildInput(spec)
			if err != nil {
				t.Fatal(err)
			}
			again := check(t, in, g.lines...)
			got, want := again.Spec, in.Spec
			want.Faults, want.Overload = 0, false // carried as explicit events
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec differs after the round trip:\n%+v\n%+v", want, got)
			}
			// What the shrinker does: fewer ops and fewer faults, both by
			// removal only; the phase markers stay.
			in.Ops = append(in.Ops[2:9:9], in.Ops[20:]...)
			var events []cluster.Event
			for i, ev := range in.Events {
				if sim.IsMarker(ev) || i%2 == 0 {
					events = append(events, ev)
				}
			}
			in.Events = events
			check(t, in)
			in.Ops = in.Ops[:0]
			check(t, in, "keep -")
		})
	}
}

// TestShrunkReproducerReplays is the loop a nightly failure goes through:
// the self-test's armed bug is found and shrunk, the shrunk input is
// written as a .arb file, and replaying the file shows the same violations
// and the same trace, line for line, as the input it was written from —
// with a phased workload too, whose markers the file does not carry.
func TestShrunkReproducerReplays(t *testing.T) {
	for name, phases := range map[string][]sim.Phase{
		"plain":  nil,
		"phased": {{Profile: sim.ProfileMostlyWrite, Ops: 15}, {Profile: sim.ProfileBalanced, Ops: 10}},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := sim.Campaign(sim.Spec{
				Seed: 1, Ops: 25, Faults: 5, Keys: 3, Clients: 2, Phases: phases,
				Timeout: 30 * time.Millisecond, SkipWALReplay: true,
			}, 15)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failure == nil {
				t.Fatal("campaign missed the injected WAL-replay bug")
			}
			text, again := reproduce(t, rep.Failure.Input)
			if n := len(FromInput(again).Schedule); n > 5 {
				t.Errorf("reproducer has %d fault events, want ≤ 5:\n%s", n, text)
			}
			want, err := sim.Execute(rep.Failure.Input)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Execute(again)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Failed() || !reflect.DeepEqual(got.Violations, rep.Failure.Violations) {
				t.Errorf("replay shows %v, the campaign reported %v\n%s", got.Violations, rep.Failure.Violations, text)
			}
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Errorf("replayed trace differs from the shrunk input's:\n%s\n--- want ---\n%s\n%s",
					strings.Join(got.Trace, "\n"), strings.Join(want.Trace, "\n"), text)
			}
		})
	}
}

// TestScenarioCorpusReplaysGreen replays every checked-in scenario and
// requires all of its expectations to hold — the corpus is executable
// documentation, and this is what keeps it honest between nightlies.
func TestScenarioCorpusReplaysGreen(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".arb") {
			continue
		}
		files++
		name := e.Name()
		t.Run(strings.TrimSuffix(name, ".arb"), func(t *testing.T) {
			t.Parallel()
			spec, err := Load(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(spec.Expects) == 0 {
				t.Fatal("checked-in scenarios must declare expectations")
			}
			reparsed, err := Parse(spec.String())
			if err != nil {
				t.Fatalf("canonical form does not reparse: %v", err)
			}
			if !reflect.DeepEqual(spec, reparsed) {
				t.Fatalf("canonical round trip changed the spec of %s", name)
			}
			c, err := sim.BuildInput(spec.Spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Execute(c)
			if err != nil {
				t.Fatal(err)
			}
			if fails := spec.Check(res); len(fails) > 0 {
				t.Errorf("scenario %s failed its contract:\n%s", name, strings.Join(fails, "\n"))
			}
		})
	}
	if files < 10 {
		t.Errorf("corpus has %d scenarios, want the full EXPERIMENTS.md set (>=10)", files)
	}
}
