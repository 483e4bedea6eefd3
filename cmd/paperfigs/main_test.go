package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"arbor/internal/testwatch"
)

func TestMain(m *testing.M) { testwatch.Main(m, time.Minute) }

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "example34", "limits", "lowerbound"} {
		if err := run([]string{"-exp", exp}); err != nil {
			t.Errorf("run(-exp %s): %v", exp, err)
		}
	}
}

func TestRunFigures(t *testing.T) {
	for _, exp := range []string{"fig2", "fig3", "fig4"} {
		if err := run([]string{"-exp", exp, "-maxn", "100"}); err != nil {
			t.Errorf("run(-exp %s): %v", exp, err)
		}
		if err := run([]string{"-exp", exp, "-maxn", "50", "-csv"}); err != nil {
			t.Errorf("run(-exp %s -csv): %v", exp, err)
		}
	}
}

func TestRunValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo heavy")
	}
	if err := run([]string{"-exp", "validate"}); err != nil {
		t.Errorf("run(-exp validate): %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunPlotAndExtras(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig2", "-maxn", "60", "-plot"},
		{"-exp", "fig3", "-maxn", "60", "-plot"},
		{"-exp", "fig4", "-maxn", "60", "-plot"},
		{"-exp", "ablation"},
		{"-exp", "context"},
		{"-exp", "availability"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunCorrelated(t *testing.T) {
	if err := run([]string{"-exp", "correlated"}); err != nil {
		t.Fatalf("correlated: %v", err)
	}
}

// TestRunLive pins the measured X-LIVE table EXPERIMENTS.md quotes: reads
// cost the closed form exactly, writes the closed form up to which levels
// the seeded client drew.
func TestRunLive(t *testing.T) {
	var buf bytes.Buffer
	if err := emitLive(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"MOSTLY-READ    1-65                           1.00          1         66.00       66.00",
		"BALANCED       1-4-4-4-4-4-4-4-37             8.00          8         17.36       16.12",
		"MOSTLY-WRITE   1-2-2-2-2-2-2-2-2-2...        32.00         32         34.02       34.03",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("live table lacks %q:\n%s", want, buf.String())
		}
	}
	if err := run([]string{"-exp", "live"}); err != nil {
		t.Errorf("run(-exp live): %v", err)
	}
}
