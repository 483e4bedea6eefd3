package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseScenarioTable is the closed-world corpus for the .arb syntax,
// in the style of the wire malformed-decode table: every success case
// pins the canonical rendering (and that it re-parses to the same Spec),
// every rejection pins the exact error message.
func TestParseScenarioTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // canonical form; "" means an error is expected
		err  string // exact error message
	}{
		// --- success and canonicalization ---
		{
			name: "minimal",
			in:   "tree 1-3-5\nops 10\n",
			want: "tree 1-3-5\nops 10\n",
		},
		{
			name: "directive order is canonicalized",
			in:   "ops 10\nseed 3\ntree 1-3-5\nscenario x\n",
			want: "scenario x\ntree 1-3-5\nseed 3\nops 10\n",
		},
		{
			name: "comments and blank lines are stripped",
			in:   "# header\n\ntree 1-3-5 # trailing\n\nops 10\n",
			want: "tree 1-3-5\nops 10\n",
		},
		{
			name: "whitespace is insignificant",
			in:   "  tree   1-3-5  \n\tops\t10\n",
			want: "tree 1-3-5\nops 10\n",
		},
		{
			name: "durations render canonically",
			in:   "tree 1-3-5\nops 10\ntimeout 1500ms\nlockttl 1000ms\n",
			want: "tree 1-3-5\nops 10\ntimeout 1.5s\nlockttl 1s\n",
		},
		{
			name: "zipf drops trailing zeros",
			in:   "tree 1-3-5\nops 10\nzipf 1.40\n",
			want: "tree 1-3-5\nops 10\nzipf 1.4\n",
		},
		{
			name: "seed zero is the default and not rendered",
			in:   "tree 1-3-5\nseed 0\nops 10\n",
			want: "tree 1-3-5\nops 10\n",
		},
		{
			name: "numeric profile",
			in:   "tree 1-3-5\nops 10\nprofile r0.7\n",
			want: "tree 1-3-5\nops 10\nprofile r0.7\n",
		},
		{
			name: "logical-node tree spec",
			in:   "tree 1-3-5+4\nops 10\n",
			want: "tree 1-3-5+4\nops 10\n",
		},
		{
			name: "adapt bare",
			in:   "tree 1-8\nops 10\nadapt\n",
			want: "tree 1-8\nops 10\nadapt\n",
		},
		{
			name: "adapt every",
			in:   "tree 1-8\nops 10\nadapt every 5\n",
			want: "tree 1-8\nops 10\nadapt every 5\n",
		},
		{
			name: "antientropy",
			in:   "tree 1-3-5\nops 10\nantientropy\n",
			want: "tree 1-3-5\nops 10\nantientropy\n",
		},
		{
			name: "overload renders after antientropy",
			in:   "tree 1-3-5\noverload\nops 10\nantientropy\n",
			want: "tree 1-3-5\nops 10\nantientropy\noverload\n",
		},
		{
			name: "reproducer: bug and keep render in canonical position",
			in:   "tree 1-2\nfault 4ms:restart\nkeep 0,2,3\nbug skip-wal-replay\nops 4\n",
			want: "tree 1-2\nops 4\nbug skip-wal-replay\nkeep 0,2,3\nfault 4ms:restart\n",
		},
		{
			name: "keep - keeps no op",
			in:   "tree 1-2\nops 4\nkeep -\n",
			want: "tree 1-2\nops 4\nkeep -\n",
		},
		{
			name: "keep indexes the phase total",
			in:   "tree 1-2\nphase balanced 3\nramp mostly-read mostly-write 4\nkeep 06\n",
			want: "tree 1-2\nphase balanced 3\nramp mostly-read mostly-write 4\nkeep 6\n",
		},
		{
			name: "latency classes sort by level and site",
			in:   "tree 1-3-5\nops 10\nlatency level 1 4ms\nlatency level 0 2ms\nlatency site 8 9ms\nlatency site 2 3ms\n",
			want: "tree 1-3-5\nops 10\nlatency level 0 2ms\nlatency level 1 4ms\nlatency site 2 3ms\nlatency site 8 9ms\n",
		},
		{
			name: "full latency geometry",
			in:   "tree 1-3-5\nops 10\nlatency dist pareto\nlatency jitter 500us\nlatency base 1ms\n",
			want: "tree 1-3-5\nops 10\nlatency base 1ms\nlatency jitter 500µs\nlatency dist pareto\n",
		},
		{
			name: "phases with zipf",
			in:   "tree 1-3-5\nphase balanced 20 zipf 1.5\nphase mostly-read 30\n",
			want: "tree 1-3-5\nphase balanced 20 zipf 1.5\nphase mostly-read 30\n",
		},
		{
			name: "ramp minimal",
			in:   "tree 1-8\nramp mostly-read mostly-write 40\n",
			want: "tree 1-8\nramp mostly-read mostly-write 40\n",
		},
		{
			name: "ramp with steps and zipf",
			in:   "tree 1-8\nramp mostly-read mostly-write 40 steps 8 zipf 1.2\n",
			want: "tree 1-8\nramp mostly-read mostly-write 40 steps 8 zipf 1.2\n",
		},
		{
			name: "fault lines merge time-ordered",
			in:   "tree 1-3-5\nops 10\nfault 10ms:heal\nfault 5ms:crash=1\n",
			want: "tree 1-3-5\nops 10\nfault 5ms:crash=1;10ms:heal\n",
		},
		{
			name: "multi-action fault event",
			in:   "tree 1-3-5\nops 10\nfault 5ms:crash=2+partition=3,4\n",
			want: "tree 1-3-5\nops 10\nfault 5ms:crash=2+partition=3,4\n",
		},
		{
			name: "expect spectrum",
			in:   "tree 1-8\nops 10\nadapt\nexpect no-violations\nexpect margin-gaps 0\nexpect adapt-decisions >=1\nexpect failures <=3\nexpect final-spec 1-8\n",
			want: "tree 1-8\nops 10\nadapt\nexpect no-violations\nexpect margin-gaps 0\nexpect adapt-decisions >=1\nexpect failures <=3\nexpect final-spec 1-8\n",
		},
		// --- rejections: directive syntax ---
		{
			name: "unknown directive",
			in:   "tree 1-3-5\nops 10\nbogus 1\n",
			err:  `scenario: line 3: unknown directive "bogus"`,
		},
		{
			name: "scenario without a name",
			in:   "scenario\ntree 1-3-5\nops 10\n",
			err:  "scenario: line 1: scenario needs a name",
		},
		{
			name: "scenario name with bad characters",
			in:   "scenario a/b\ntree 1-3-5\nops 10\n",
			err:  `scenario: line 1: scenario name "a/b" may use letters, digits, dots, dashes and underscores`,
		},
		{
			name: "tree without a spec",
			in:   "tree\nops 10\n",
			err:  "scenario: line 1: tree needs a spec like 1-3-5",
		},
		{
			name: "tree with a bad spec",
			in:   "tree 1-x\nops 10\n",
			err:  `scenario: line 1: tree: tree: level 1: bad physical count "x"`,
		},
		{
			name: "seed not an integer",
			in:   "tree 1-3-5\nseed abc\nops 10\n",
			err:  `scenario: line 2: seed needs an integer, not "abc"`,
		},
		{
			name: "ops zero",
			in:   "tree 1-3-5\nops 0\n",
			err:  `scenario: line 2: ops needs a positive count, not "0"`,
		},
		{
			name: "keys negative",
			in:   "tree 1-3-5\nops 10\nkeys -1\n",
			err:  `scenario: line 3: keys needs a positive count, not "-1"`,
		},
		{
			name: "clients not a number",
			in:   "tree 1-3-5\nops 10\nclients two\n",
			err:  `scenario: line 3: clients needs a positive count, not "two"`,
		},
		{
			name: "faults missing count",
			in:   "tree 1-3-5\nops 10\nfaults\n",
			err:  "scenario: line 3: faults needs a positive count",
		},
		{
			name: "unknown profile",
			in:   "tree 1-3-5\nops 10\nprofile turbo\n",
			err:  `scenario: line 3: profile: sim: unknown profile "turbo" (want mostly-read, mostly-write, balanced or r<fraction>)`,
		},
		{
			name: "zipf at one",
			in:   "tree 1-3-5\nops 10\nzipf 1\n",
			err:  `scenario: line 3: zipf needs a skew > 1, not "1"`,
		},
		{
			name: "timeout zero",
			in:   "tree 1-3-5\nops 10\ntimeout 0s\n",
			err:  `scenario: line 3: timeout needs a positive duration, not "0s"`,
		},
		{
			name: "lockttl malformed",
			in:   "tree 1-3-5\nops 10\nlockttl fast\n",
			err:  `scenario: line 3: lockttl needs a positive duration, not "fast"`,
		},
		{
			name: "antientropy with an argument",
			in:   "tree 1-3-5\nops 10\nantientropy on\n",
			err:  "scenario: line 3: antientropy takes no argument",
		},
		{
			name: "overload with an argument",
			in:   "tree 1-3-5\nops 10\noverload 3\n",
			err:  "scenario: line 3: overload takes no argument",
		},
		{
			name: "duplicate overload",
			in:   "tree 1-3-5\nops 10\noverload\noverload\n",
			err:  "scenario: line 4: duplicate overload directive",
		},
		{
			name: "adapt with garbage",
			in:   "tree 1-8\nops 10\nadapt now\n",
			err:  `scenario: line 3: adapt takes no argument or "every <ops>"`,
		},
		{
			name: "adapt every zero",
			in:   "tree 1-8\nops 10\nadapt every 0\n",
			err:  `scenario: line 3: adapt every needs a positive op stride, not "0"`,
		},
		{
			name: "bug unknown",
			in:   "tree 1-2\nops 4\nbug eat-ram\n",
			err:  "scenario: line 3: bug needs a known defect name (skip-wal-replay)",
		},
		{
			name: "bug without a name",
			in:   "tree 1-2\nops 4\nbug\n",
			err:  "scenario: line 3: bug needs a known defect name (skip-wal-replay)",
		},
		{
			name: "keep without indices",
			in:   "tree 1-2\nops 4\nkeep\n",
			err:  "scenario: line 3: keep needs op indices like 0,3,7 (or - for none)",
		},
		{
			name: "keep not a number",
			in:   "tree 1-2\nops 4\nkeep 0,x\n",
			err:  `scenario: line 3: keep needs op indices like 0,3,7 (or - for none), not "0,x"`,
		},
		{
			name: "keep negative",
			in:   "tree 1-2\nops 4\nkeep -1\n",
			err:  `scenario: line 3: keep needs op indices like 0,3,7 (or - for none), not "-1"`,
		},
		{
			name: "keep with spaces",
			in:   "tree 1-2\nops 4\nkeep 0, 2\n",
			err:  "scenario: line 3: keep needs op indices like 0,3,7 (or - for none)",
		},
		{
			name: "keep unsorted",
			in:   "tree 1-2\nops 4\nkeep 0,3,2\n",
			err:  "scenario: line 3: keep indices must be ascending and unique: 2 after 3",
		},
		{
			name: "keep repeats an index",
			in:   "tree 1-2\nops 4\nkeep 1,1\n",
			err:  "scenario: line 3: keep indices must be ascending and unique: 1 after 1",
		},
		{
			name: "keep out of range",
			in:   "tree 1-2\nkeep 0,4\nops 4\n",
			err:  "scenario: keep index 4: the workload has ops 0..3",
		},
		{
			name: "keep out of range of the phase total",
			in:   "tree 1-2\nphase balanced 3\nphase mostly-read 4\nkeep 7\n",
			err:  "scenario: keep index 7: the workload has ops 0..6",
		},
		// --- rejections: duplicates ---
		{
			name: "duplicate bug",
			in:   "tree 1-2\nops 4\nbug skip-wal-replay\nbug skip-wal-replay\n",
			err:  "scenario: line 4: duplicate bug directive",
		},
		{
			name: "duplicate keep",
			in:   "tree 1-2\nops 4\nkeep 0\nkeep 1\n",
			err:  "scenario: line 4: duplicate keep directive",
		},
		{
			name: "duplicate tree",
			in:   "tree 1-3-5\ntree 1-8\nops 10\n",
			err:  "scenario: line 2: duplicate tree directive",
		},
		{
			name: "duplicate ops",
			in:   "tree 1-3-5\nops 10\nops 20\n",
			err:  "scenario: line 3: duplicate ops directive",
		},
		{
			name: "duplicate latency base",
			in:   "tree 1-3-5\nops 10\nlatency base 1ms\nlatency base 2ms\n",
			err:  "scenario: line 4: duplicate latency base directive",
		},
		{
			name: "duplicate latency level",
			in:   "tree 1-3-5\nops 10\nlatency level 0 1ms\nlatency level 0 2ms\n",
			err:  "scenario: line 4: duplicate latency level 0 directive",
		},
		{
			name: "duplicate expect kind",
			in:   "tree 1-3-5\nops 10\nexpect no-violations\nexpect no-violations\n",
			err:  "scenario: line 4: duplicate expect no-violations",
		},
		// --- rejections: latency ---
		{
			name: "latency without a subdirective",
			in:   "tree 1-3-5\nops 10\nlatency\n",
			err:  "scenario: line 3: latency needs a subdirective: base, jitter, dist, level or site",
		},
		{
			name: "latency unknown subdirective",
			in:   "tree 1-3-5\nops 10\nlatency rtt 1ms\n",
			err:  `scenario: line 3: unknown latency subdirective "rtt" (want base, jitter, dist, level or site)`,
		},
		{
			name: "latency base malformed",
			in:   "tree 1-3-5\nops 10\nlatency base soon\n",
			err:  `scenario: line 3: latency base needs a positive duration, not "soon"`,
		},
		{
			name: "latency dist unknown",
			in:   "tree 1-3-5\nops 10\nlatency jitter 1ms\nlatency dist normal\n",
			err:  `scenario: line 4: latency dist: transport: unknown jitter distribution "normal" (want uniform, exponential or pareto)`,
		},
		{
			name: "latency level missing rtt",
			in:   "tree 1-3-5\nops 10\nlatency level 0\n",
			err:  "scenario: line 3: latency level needs <level> <rtt>",
		},
		{
			name: "latency level negative",
			in:   "tree 1-3-5\nops 10\nlatency level -1 2ms\n",
			err:  `scenario: line 3: latency level needs a level index >= 0, not "-1"`,
		},
		{
			name: "latency site zero",
			in:   "tree 1-3-5\nops 10\nlatency site 0 2ms\n",
			err:  `scenario: line 3: latency site needs a site id, not "0"`,
		},
		{
			name: "latency site rtt malformed",
			in:   "tree 1-3-5\nops 10\nlatency site 2 -1ms\n",
			err:  `scenario: line 3: latency site 2 needs a positive rtt, not "-1ms"`,
		},
		// --- rejections: phases and ramps ---
		{
			name: "phase arity",
			in:   "tree 1-3-5\nphase balanced\n",
			err:  "scenario: line 2: phase needs <profile> <ops> [zipf <s>]",
		},
		{
			name: "phase unknown profile",
			in:   "tree 1-3-5\nphase turbo 10\n",
			err:  `scenario: line 2: phase: sim: unknown profile "turbo" (want mostly-read, mostly-write, balanced or r<fraction>)`,
		},
		{
			name: "phase ops zero",
			in:   "tree 1-3-5\nphase balanced 0\n",
			err:  `scenario: line 2: phase needs a positive op count, not "0"`,
		},
		{
			name: "phase zipf too small",
			in:   "tree 1-3-5\nphase balanced 10 zipf 1.0\n",
			err:  `scenario: line 2: phase zipf needs a skew > 1, not "1.0"`,
		},
		{
			name: "ramp arity",
			in:   "tree 1-8\nramp mostly-read mostly-write\n",
			err:  "scenario: line 2: ramp needs <from> <to> <ops> [steps <n>] [zipf <s>]",
		},
		{
			name: "ramp one op",
			in:   "tree 1-8\nramp mostly-read mostly-write 1\n",
			err:  `scenario: line 2: ramp needs an op count >= 2, not "1"`,
		},
		{
			name: "ramp steps one",
			in:   "tree 1-8\nramp mostly-read mostly-write 40 steps 1\n",
			err:  `scenario: line 2: ramp steps needs a count >= 2, not "1"`,
		},
		{
			name: "ramp steps exceed ops",
			in:   "tree 1-8\nramp mostly-read mostly-write 4 steps 8\n",
			err:  "scenario: line 2: ramp steps 8 exceeds its 4 ops",
		},
		{
			name: "ramp trailing garbage",
			in:   "tree 1-8\nramp mostly-read mostly-write 40 steps 4 now\n",
			err:  "scenario: line 2: ramp needs <from> <to> <ops> [steps <n>] [zipf <s>]",
		},
		// --- rejections: faults and expects ---
		{
			name: "fault with spaces",
			in:   "tree 1-3-5\nops 10\nfault 10ms:crash=1; 20ms:heal\n",
			err:  "scenario: line 3: fault needs one schedule token like 10ms:crash=2;20ms:heal",
		},
		{
			name: "fault bad schedule",
			in:   "tree 1-3-5\nops 10\nfault 10ms:melt\n",
			err:  `scenario: line 3: fault: cluster: unknown schedule action "melt"`,
		},
		{
			name: "expect without an assertion",
			in:   "tree 1-3-5\nops 10\nexpect\n",
			err:  "scenario: line 3: expect needs an assertion",
		},
		{
			name: "expect unknown kind",
			in:   "tree 1-3-5\nops 10\nexpect perfection\n",
			err:  `scenario: line 3: unknown expect "perfection" (want no-violations, no-history-violations, margin-gaps, adapt-decisions, reconfigurations, failures, sheds or final-spec)`,
		},
		{
			name: "expect flag kind with argument",
			in:   "tree 1-3-5\nops 10\nexpect no-violations 0\n",
			err:  "scenario: line 3: expect no-violations takes no argument",
		},
		{
			name: "expect numeric kind without count",
			in:   "tree 1-3-5\nops 10\nexpect margin-gaps\n",
			err:  "scenario: line 3: expect margin-gaps needs a count like 0, >=1 or <=3",
		},
		{
			name: "expect numeric kind bad count",
			in:   "tree 1-3-5\nops 10\nexpect failures >=x\n",
			err:  `scenario: line 3: expect failures needs a count like 0, >=1 or <=3, not ">=x"`,
		},
		{
			name: "expect final-spec bad tree",
			in:   "tree 1-3-5\nops 10\nexpect final-spec 1-y\n",
			err:  `scenario: line 3: expect final-spec: tree: level 1: bad physical count "y"`,
		},
		// --- rejections: whole-file validation ---
		{
			name: "missing tree",
			in:   "ops 10\n",
			err:  "scenario: missing tree directive",
		},
		{
			name: "missing workload",
			in:   "tree 1-3-5\n",
			err:  "scenario: missing workload: add ops or phase/ramp lines",
		},
		{
			name: "ops conflict with phases",
			in:   "tree 1-3-5\nops 10\nphase balanced 10\n",
			err:  "scenario: ops, profile and zipf conflict with phase/ramp lines (phases define the workload)",
		},
		{
			name: "profile conflict with phases",
			in:   "tree 1-3-5\nprofile balanced\nphase balanced 10\n",
			err:  "scenario: ops, profile and zipf conflict with phase/ramp lines (phases define the workload)",
		},
		{
			name: "dist without jitter",
			in:   "tree 1-3-5\nops 10\nlatency dist pareto\n",
			err:  "scenario: latency dist needs latency jitter",
		},
		{
			name: "latency level out of range",
			in:   "tree 1-3-5\nops 10\nlatency level 2 2ms\n",
			err:  "scenario: latency level 2: tree 1-3-5 has physical levels 0..1",
		},
		{
			name: "latency site not in tree",
			in:   "tree 1-3-5\nops 10\nlatency site 9 2ms\n",
			err:  "scenario: latency site 9: no such site in tree 1-3-5",
		},
		{
			name: "fault schedule site not in tree",
			in:   "tree 1-3-5\nops 10\nfault 5ms:crash=9\n",
			err:  "scenario: fault schedule references site 9, not in tree 1-3-5",
		},
		{
			name: "fault partition site not in tree",
			in:   "tree 1-3-5\nops 10\nfault 5ms:partition=1,9\n",
			err:  "scenario: fault schedule references site 9, not in tree 1-3-5",
		},
		{
			name: "expect adapt-decisions without adapt",
			in:   "tree 1-8\nops 10\nexpect adapt-decisions >=1\n",
			err:  "scenario: expect adapt-decisions requires adapt",
		},
		{
			name: "expect reconfigurations without adapt",
			in:   "tree 1-8\nops 10\nexpect reconfigurations 0\n",
			err:  "scenario: expect reconfigurations requires adapt",
		},
		{
			name: "expect margin-gaps with antientropy",
			in:   "tree 1-3-5\nops 10\nantientropy\nexpect margin-gaps 0\n",
			err:  "scenario: expect margin-gaps conflicts with antientropy (gaps are hard violations there)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse(tc.in)
			if tc.err != "" {
				if err == nil {
					t.Fatalf("Parse accepted %q as:\n%s", tc.in, spec)
				}
				if err.Error() != tc.err {
					t.Fatalf("Parse error = %q, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			got := spec.String()
			if got != tc.want {
				t.Fatalf("canonical form = %q, want %q", got, tc.want)
			}
			// The canonical form must be a fixpoint: reparse and compare
			// both the structure and the rendering.
			again, err := Parse(got)
			if err != nil {
				t.Fatalf("reparse of canonical form: %v", err)
			}
			if !reflect.DeepEqual(spec, again) {
				t.Fatalf("reparse changed the spec:\n first: %+v\nsecond: %+v", spec, again)
			}
			if again.String() != got {
				t.Fatalf("second render differs:\n first: %q\nsecond: %q", got, again.String())
			}
		})
	}
}

// TestParseScenarioKitchenSink exercises every directive in one file and
// checks a few structural details the table cannot see.
func TestParseScenarioKitchenSink(t *testing.T) {
	in := strings.Join([]string{
		"scenario kitchen-sink",
		"tree 1-3-5",
		"seed -7",
		"keys 8",
		"clients 3",
		"faults 2",
		"timeout 100ms",
		"lockttl 2s",
		"bug skip-wal-replay",
		"antientropy",
		"overload",
		"adapt every 10",
		"latency base 1ms",
		"latency jitter 500us",
		"latency dist exponential",
		"latency level 0 2ms",
		"latency site 5 6ms",
		"phase mostly-read 40",
		"ramp mostly-read mostly-write 40 steps 4",
		"keep 0,39,40,79",
		"fault 5ms:crash=2;20ms:recoversync=2",
		"expect no-violations",
		"expect final-spec 1-3-5",
	}, "\n")
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != -7 || !spec.AntiEntropy || !spec.Overload || spec.AdaptEvery != 10 || !spec.SkipWALReplay {
		t.Errorf("scalar fields wrong: %+v", spec)
	}
	if len(spec.Phases) != 2 || !spec.Phases[1].Ramp || spec.Phases[1].Steps != 4 {
		t.Errorf("phases wrong: %+v", spec.Phases)
	}
	if len(spec.Schedule) != 2 || len(spec.Expects) != 2 || !reflect.DeepEqual(spec.Keep, []int{0, 39, 40, 79}) {
		t.Errorf("schedule/expects/keep wrong: %d events, %d expects, keep %v", len(spec.Schedule), len(spec.Expects), spec.Keep)
	}
	again, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("kitchen sink is not a fixpoint:\n first: %+v\nsecond: %+v", spec, again)
	}
}
