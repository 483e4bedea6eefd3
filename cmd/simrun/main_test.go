package main

import "testing"

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-spec", "1-3-5", "-ops", "100", "-seed", "2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAlgorithm1WithOptions(t *testing.T) {
	args := []string{
		"-algorithm1", "64",
		"-ops", "60",
		"-read-fraction", "0.5",
		"-clients", "2",
		"-zipf", "1.3",
		"-keys", "8",
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithCrashes(t *testing.T) {
	if err := run([]string{"-spec", "1-3-5", "-ops", "40", "-crash", "1,4", "-timeout", "50ms"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithNetworkFaults(t *testing.T) {
	args := []string{
		"-spec", "1-2-3",
		"-ops", "30",
		"-latency", "1ms",
		"-jitter", "1ms",
		"-drop", "0.01",
		"-timeout", "200ms",
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithSchedule(t *testing.T) {
	args := []string{
		"-spec", "1-3-5",
		"-ops", "60",
		"-timeout", "40ms",
		"-schedule", "5ms:crash=1;30ms:recoverall",
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-spec", "garbage"},
		{"-spec", "1-3-5", "-crash", "xyz"},
		{"-spec", "1-3-5", "-crash", "99"},
		{"-spec", "1-3-5", "-schedule", "bad"},
		{"-bogus"},
		{"-spec", "1-3-5", "-clients", "0"},
		{"-spec", "1-3-5", "-clients", "-2"},
		{"-spec", "1-3-5", "-scenario", "../../scenarios/geo-latency.arb"}, // no such flag: arborsim replays scenarios
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunCompare(t *testing.T) {
	if err := run([]string{"-compare", "-ops", "60"}); err != nil {
		t.Fatalf("compare: %v", err)
	}
	if err := run([]string{"-compare", "-algorithm1", "66", "-ops", "40"}); err != nil {
		t.Fatalf("compare n=66: %v", err)
	}
}
