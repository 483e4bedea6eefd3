package scenario

import (
	"reflect"
	"testing"
)

// FuzzParseScenario drives random text through the parser and demands
// the canonical-form fixpoint: whatever Parse accepts must render to a
// form that reparses to the structurally identical Spec and renders
// identically again. This is the same discipline the schedule parser is
// held to; reproducers are scenario files, so it covers them too.
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		"tree 1-3-5\nops 10\n",
		"scenario x\ntree 1-3-5\nseed 3\nops 60\nprofile mostly-read\nfaults 6\nexpect no-violations\n",
		"tree 1-8\nphase mostly-read 40\nphase mostly-write 60\nadapt every 10\nexpect reconfigurations >=2\nexpect final-spec 1-8\n",
		"tree 1-8\nramp mostly-read mostly-write 40 steps 4 zipf 1.2\n",
		"tree 1-3-5\nops 80\nfault 10ms:crash=2+partition=3,4;30ms:recover=2;50ms:heal\nexpect failures <=40\n",
		"tree 1-2-4\nops 60\nlatency base 1ms\nlatency jitter 500us\nlatency dist pareto\nlatency level 0 2ms\nlatency site 6 8ms\n",
		"tree 1-3-5\nops 10\nzipf 1.4\nkeys 8\nclients 3\ntimeout 100ms\nlockttl 2s\n",
		"tree 1-3-5\nops 10\nexpect failures 0\nexpect no-history-violations\n",
		"# comment\n\ntree 1-3-5 # tail\nops 10\n",
		"tree 1-3-5\nops 10\nfault 10ms:heal\nfault 5ms:crash=1\n",
		"tree 1-2\nseed 3\nops 25\nprofile mostly-write\nkeys 3\nclients 2\ntimeout 30ms\nlockttl 1s\nbug skip-wal-replay\nkeep 0,7\nfault 9ms:restart\n",
		"tree 1-8\nphase r0.7 20 zipf 1.2\nlatency site 4 80ms\nadapt every 10\nkeep -\n",
		"tree 1-x\nops 10\n",
		"tree 1-3-5\nops 10\nexpect failures >=\n",
		"tree 1-3-5\nops 10\nlatency level 9 1ms\n",
		"tree 1-3-5\nops 40\nfaults 3\noverload\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return // rejection is fine; crashing or accepting ambiguity is not
		}
		canon := spec.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanonical: %q", err, text, canon)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("canonical form is not a structural fixpoint\ninput: %q\n first: %+v\nsecond: %+v", text, spec, again)
		}
		if second := again.String(); second != canon {
			t.Fatalf("render is not a fixpoint\ninput: %q\n first: %q\nsecond: %q", text, canon, second)
		}
	})
}
