package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/scenario"
	"arbor/internal/sim"
	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, time.Minute) }

func TestRunCampaignClean(t *testing.T) {
	args := []string{
		"-runs", "2", "-ops", "25", "-faults", "3",
		"-seed", "5", "-timeout", "30ms", "-keys", "3",
		"-o", filepath.Join(t.TempDir(), "repro.arb"),
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSelftestCatchesInjectedBug(t *testing.T) {
	args := []string{
		"-selftest", "-runs", "15", "-ops", "25", "-faults", "5",
		"-seed", "1", "-timeout", "30ms", "-keys", "3",
	}
	if err := run(args); err != nil {
		t.Fatalf("selftest: %v", err)
	}
}

// TestRunReplayReproducesViolation replays a hand-written reproducer: one
// acknowledged write, then a restart that (with the bug armed) discards the
// journals. A scenario without expect lines fails on the violation; the
// same file without the bug line passes, so the failure is the armed bug.
func TestRunReplayReproducesViolation(t *testing.T) {
	const clean = "tree 1-2\nseed 3\nops 4\nprofile mostly-write\nfault 4ms:restart\n"
	dir := t.TempDir()
	for name, text := range map[string]string{"bug.arb": clean + "bug skip-wal-replay\n", "clean.arb": clean} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"-scenario", filepath.Join(dir, "bug.arb"), "-trace"}); err == nil {
		t.Error("replay of the armed reproducer reported no violation")
	}
	if err := run([]string{"-scenario", filepath.Join(dir, "clean.arb")}); err != nil {
		t.Errorf("replay without the bug line: %v", err)
	}
}

// TestRunRejectsReproFlag: reproducers are .arb files replayed with
// -scenario; the separate -repro format and flag are gone.
func TestRunRejectsReproFlag(t *testing.T) {
	if err := run([]string{"-repro", "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-repro err = %v, want an unknown-flag error", err)
	}
}

func TestRunRejectsBadProfile(t *testing.T) {
	if err := run([]string{"-profile", "sideways"}); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func TestRunRejectsBadPhases(t *testing.T) {
	if err := run([]string{"-phases", "mostly-read"}); err == nil {
		t.Fatal("bad phases accepted")
	}
}

// TestRunAdaptiveCampaignClean drives a phased adaptation campaign through
// the CLI: workload flips mid-run, the controller migrates, and all
// invariants hold.
func TestRunAdaptiveCampaignClean(t *testing.T) {
	args := []string{
		"-runs", "2", "-faults", "3", "-seed", "7",
		"-timeout", "30ms", "-keys", "3", "-spec", "1-8",
		"-adapt", "-phases", "mostly-read:30,mostly-write:40",
		"-o", filepath.Join(t.TempDir(), "repro.arb"),
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestCampaignWritesDecisionJournalOnFailure arms the WAL-replay bug with
// the controller live and checks the failing run's decision journal lands
// on disk as JSON next to the reproducer — which is a canonical .arb file
// that -scenario replays to the same failure.
func TestCampaignWritesDecisionJournalOnFailure(t *testing.T) {
	dir := t.TempDir()
	spec := sim.Spec{
		Seed:          1,
		Ops:           25,
		Faults:        5,
		Keys:          3,
		Timeout:       30 * time.Millisecond,
		Profile:       sim.ProfileMostlyWrite,
		SkipWALReplay: true,
		Adapt:         true,
	}
	out := filepath.Join(dir, "repro.arb")
	journal := filepath.Join(dir, "journal.json")
	err := campaign(spec, 15, out, journal, false)
	if err == nil {
		t.Fatal("campaign missed the injected WAL-replay bug")
	}
	data, rerr := os.ReadFile(journal)
	if rerr != nil {
		t.Fatalf("decision journal not written: %v", rerr)
	}
	var decisions []adapt.Decision
	if jerr := json.Unmarshal(data, &decisions); jerr != nil {
		t.Fatalf("decision journal is not valid JSON: %v\n%s", jerr, data)
	}
	text, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatalf("reproducer not written: %v", rerr)
	}
	repro, perr := scenario.Parse(string(text))
	if perr != nil || repro.String() != string(text) {
		t.Fatalf("reproducer is not a canonical scenario (parse err %v):\n%s", perr, text)
	}
	if err := run([]string{"-scenario", out, "-artifacts", dir}); err == nil {
		t.Errorf("replaying the written reproducer reported no violation:\n%s", text)
	}
}

// TestRunFaultsZeroInjectsNone: -faults 0 generates no fault events, as a
// scenario without a faults line does.
func TestRunFaultsZeroInjectsNone(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-runs", "2", "-ops", "20", "-faults", "0", "-timeout", "30ms",
			"-o", filepath.Join(t.TempDir(), "repro.arb")})
	})
	if !strings.Contains(out, "2 runs, 40 ops, 0 faults injected") {
		t.Errorf("campaign with -faults 0 reported:\n%s", out)
	}
}

// TestFlagsMatchScenario: a flag set and the .arb text saying the same
// build the identical run, because both fill the one sim.Spec.
func TestFlagsMatchScenario(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		arb  string
	}{
		{"defaults", nil, "tree 1-3-5\nseed 1\nops 60\nprofile balanced\nfaults 6\ntimeout 40ms\n"},
		{"plain", []string{"-seed", "3", "-ops", "50", "-faults", "4", "-profile", "mostly-read", "-keys", "3",
			"-clients", "3", "-timeout", "30ms", "-overload"},
			"tree 1-3-5\nseed 3\nops 50\nprofile mostly-read\nkeys 3\nclients 3\nfaults 4\ntimeout 30ms\noverload\n"},
		{"phased", []string{"-spec", "1-8", "-seed", "7", "-adapt", "-adapt-every", "5",
			"-phases", "mostly-read:40,mostly-write:30:zipf1.2"},
			"tree 1-8\nseed 7\nfaults 6\nadapt every 5\nphase mostly-read 40\nphase mostly-write 30 zipf 1.2\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, err := parseFlags(c.args)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenario.Parse(c.arb)
			if err != nil {
				t.Fatal(err)
			}
			fromFlags, err := sim.BuildInput(o.spec)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := sim.BuildInput(spec.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFlags, fromFile) {
				t.Errorf("flags and .arb build different runs:\n%+v\n%+v", fromFlags.Spec, fromFile.Spec)
			}
		})
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	return out
}
