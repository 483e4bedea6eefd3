package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: arbor
cpu: Fake CPU @ 2.40GHz
BenchmarkClusterRead-8   	    5000	    234567 ns/op	    1200 B/op	      34 allocs/op
BenchmarkClusterWrite-8  	    1000	   1234567 ns/op	    5600 B/op	     120 allocs/op
BenchmarkClusterByConfiguration/1-16-8         	    2000	    500000 ns/op
PASS
ok  	arbor	12.345s
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkClusterRead" || r.Iterations != 5000 || r.NsPerOp != 234567 {
		t.Errorf("first result = %+v", r)
	}
	if r.BytesPerOp != 1200 || r.AllocsPerOp != 34 {
		t.Errorf("memory stats = %+v", r)
	}
	if want := 1e9 / 234567.0; r.OpsPerSec != want {
		t.Errorf("ops/sec = %v, want %v", r.OpsPerSec, want)
	}
	// Sub-benchmark names keep their config part; only -procs is stripped.
	if results[2].Name != "BenchmarkClusterByConfiguration/1-16" {
		t.Errorf("sub-benchmark name = %q", results[2].Name)
	}
	if results[2].BytesPerOp != 0 || results[2].AllocsPerOp != 0 {
		t.Errorf("missing -benchmem should leave memory stats zero: %+v", results[2])
	}
}

func TestRunWritesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := run([]string{"-o", path}, strings.NewReader(sample), os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, data)
	}
	if len(snap.Benchmarks) != 3 || snap.GoVersion == "" || snap.GeneratedAt == "" {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n"), os.Stdout); err == nil {
		t.Fatal("empty input accepted")
	}
}

// writeSnap writes a snapshot file for the diff tests.
func writeSnap(t *testing.T, dir, name string, results []Result) string {
	t.Helper()
	data, err := json.Marshal(Snapshot{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffReportsDeltasAndWarnsOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", []Result{
		{Name: "BenchmarkRead", NsPerOp: 1000, OpsPerSec: 1e6, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "BenchmarkWrite", NsPerOp: 2000, OpsPerSec: 5e5},
		{Name: "BenchmarkGone", NsPerOp: 10, OpsPerSec: 1e8},
	})
	newPath := writeSnap(t, dir, "new.json", []Result{
		// Read got 10% slower: inside the threshold, no warning.
		{Name: "BenchmarkRead", NsPerOp: 1100, OpsPerSec: 1e9 / 1100, BytesPerOp: 90, AllocsPerOp: 8},
		// Write halved its throughput: warned.
		{Name: "BenchmarkWrite", NsPerOp: 4000, OpsPerSec: 2.5e5},
		{Name: "BenchmarkNew", NsPerOp: 50, OpsPerSec: 2e7},
	})

	var out strings.Builder
	if err := run([]string{"-diff", oldPath, newPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkRead", "100 -> 90 B/op", "10 -> 8 allocs/op",
		"WARN BenchmarkWrite: throughput fell 50.0%",
		"BenchmarkNew", "new benchmark",
		"BenchmarkGone", "removed",
		"1 benchmark(s) regressed beyond 25%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "WARN BenchmarkRead") {
		t.Errorf("10%% slowdown should not warn:\n%s", got)
	}
}

func TestDiffExitsZeroOnRegression(t *testing.T) {
	// A slowdown warns but must not fail the run: timings differ between
	// machines, so CI uses them as a smoke signal, not a gate.
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", []Result{{Name: "B", NsPerOp: 100, OpsPerSec: 1e7}})
	newPath := writeSnap(t, dir, "new.json", []Result{{Name: "B", NsPerOp: 1000, OpsPerSec: 1e6}})
	if err := run([]string{"-diff", oldPath, newPath}, nil, &strings.Builder{}); err != nil {
		t.Fatalf("diff with regression returned error: %v", err)
	}
}

func TestDiffFailsOnAllocIncrease(t *testing.T) {
	// Allocation counts do not depend on the machine: a rise is a gate.
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", []Result{
		{Name: "BenchmarkLeaner", NsPerOp: 100, OpsPerSec: 1e7, AllocsPerOp: 10},
		{Name: "BenchmarkFatter", NsPerOp: 100, OpsPerSec: 1e7, AllocsPerOp: 10},
	})
	newPath := writeSnap(t, dir, "new.json", []Result{
		{Name: "BenchmarkLeaner", NsPerOp: 100, OpsPerSec: 1e7, AllocsPerOp: 9},
		{Name: "BenchmarkFatter", NsPerOp: 90, OpsPerSec: 1e9 / 90, AllocsPerOp: 11},
	})
	var out strings.Builder
	err := run([]string{"-diff", oldPath, newPath}, nil, &out)
	if err == nil {
		t.Fatalf("allocs/op increase accepted:\n%s", out.String())
	}
	if got := out.String(); !strings.Contains(got, "FAIL BenchmarkFatter: allocs/op rose 10 -> 11") || strings.Contains(got, "FAIL BenchmarkLeaner") {
		t.Errorf("diff output:\n%s", got)
	}
}

func TestDiffArgErrors(t *testing.T) {
	if err := run([]string{"-diff", "only-one.json"}, nil, os.Stdout); err == nil {
		t.Error("one argument accepted")
	}
	if err := run([]string{"-diff", "nope.json", "also-nope.json"}, nil, os.Stdout); err == nil {
		t.Error("missing files accepted")
	}
}
