package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/scenario"
	"arbor/internal/sim"
)

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
	cfg := sim.Config{
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
	err := campaign(cfg, 15, out, journal, false)
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
	spec, perr := scenario.Parse(string(text))
	if perr != nil || spec.String() != string(text) {
		t.Fatalf("reproducer is not a canonical scenario (parse err %v):\n%s", perr, text)
	}
	if err := run([]string{"-scenario", out, "-artifacts", dir}); err == nil {
		t.Errorf("replaying the written reproducer reported no violation:\n%s", text)
	}
}
