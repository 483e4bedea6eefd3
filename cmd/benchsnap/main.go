// Command benchsnap converts `go test -bench` output on stdin into a JSON
// perf snapshot, the per-PR artifact the roadmap's perf trajectory is built
// from (BENCH_NNN.json at the repo root).
//
// Usage:
//
//	go test -run '^$' -bench Cluster -benchmem . | benchsnap -o BENCH_007.json
//	benchsnap -diff BENCH_006.json BENCH_007.json
//
// The snapshot records, per benchmark: iterations, ns/op (latency), derived
// ops/sec (throughput), and — when -benchmem was on — B/op and allocs/op.
// Lines that are not benchmark results (the goos/goarch preamble, PASS, ok)
// are carried into the environment header or ignored.
//
// -diff compares two snapshots benchmark by benchmark and prints the deltas.
// A throughput drop beyond 25% prints a WARN line and nothing more, because
// snapshots come from different machines and runs — the warning is a prompt
// to look, not a gate. A rise in allocs/op is a gate: allocation counts do
// not depend on the machine, so any increase prints a FAIL line and the
// exit status is non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	OpsPerSec   float64 `json:"opsPerSec"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// Snapshot is the whole artifact.
type Snapshot struct {
	GeneratedAt string   `json:"generatedAt"`
	GoVersion   string   `json:"goVersion"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	out := fs.String("o", "", "write the JSON snapshot here (default stdout)")
	diffMode := fs.Bool("diff", false, "compare two snapshot files: benchsnap -diff old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffMode {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two snapshot files, got %d", fs.NArg())
		}
		return diff(fs.Arg(0), fs.Arg(1), stdout)
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results on stdin (run with -bench)")
	}
	snap := Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Benchmarks:  results,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// regressionThreshold is the throughput drop that earns a WARN in -diff
// output: 25%, generous enough to ride out scheduler noise between runs.
const regressionThreshold = 0.25

// diff loads two snapshots and prints per-benchmark deltas, new vs old.
// Benchmarks present in only one snapshot are listed but not compared. It
// returns an error when any benchmark's allocs/op rose.
func diff(oldPath, newPath string, w io.Writer) error {
	oldSnap, err := load(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Result, len(oldSnap.Benchmarks))
	for _, r := range oldSnap.Benchmarks {
		oldBy[r.Name] = r
	}
	fmt.Fprintf(w, "%s -> %s\n", oldPath, newPath)
	warned, failed := 0, 0
	for _, nr := range newSnap.Benchmarks {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, "  %-40s new benchmark\n", nr.Name)
			continue
		}
		delete(oldBy, nr.Name)
		fmt.Fprintf(w, "  %-40s %12.0f -> %-12.0f ns/op (%+.1f%%)",
			nr.Name, or.NsPerOp, nr.NsPerOp, pct(or.NsPerOp, nr.NsPerOp))
		if or.BytesPerOp > 0 || nr.BytesPerOp > 0 {
			fmt.Fprintf(w, "  %d -> %d B/op  %d -> %d allocs/op",
				or.BytesPerOp, nr.BytesPerOp, or.AllocsPerOp, nr.AllocsPerOp)
		}
		fmt.Fprintln(w)
		if or.OpsPerSec > 0 && nr.OpsPerSec < or.OpsPerSec*(1-regressionThreshold) {
			warned++
			fmt.Fprintf(w, "  WARN %s: throughput fell %.1f%% (%.0f -> %.0f ops/sec)\n",
				nr.Name, -pct(or.OpsPerSec, nr.OpsPerSec), or.OpsPerSec, nr.OpsPerSec)
		}
		// A snapshot taken without -benchmem reads as zero; only a baseline
		// that carries memory stats can gate.
		if (or.BytesPerOp > 0 || or.AllocsPerOp > 0) && nr.AllocsPerOp > or.AllocsPerOp {
			failed++
			fmt.Fprintf(w, "  FAIL %s: allocs/op rose %d -> %d\n", nr.Name, or.AllocsPerOp, nr.AllocsPerOp)
		}
	}
	for _, r := range oldSnap.Benchmarks {
		if _, unmatched := oldBy[r.Name]; unmatched {
			fmt.Fprintf(w, "  %-40s removed\n", r.Name)
		}
	}
	if warned > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond %.0f%%\n", warned, regressionThreshold*100)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) allocate more per op than in %s", failed, oldPath)
	}
	return nil
}

// pct is the relative change from old to new, in percent.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// load reads one snapshot file.
func load(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// parse extracts benchmark result lines from `go test -bench` output. A
// result line looks like
//
//	BenchmarkClusterRead-8   1234   987654 ns/op   120 B/op   3 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the name.
func parse(in io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: trimProcs(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				r.NsPerOp, err = strconv.ParseFloat(val, 64)
			case "B/op":
				r.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			default:
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("line %q: bad %s value %q", sc.Text(), unit, val)
			}
		}
		if r.NsPerOp > 0 {
			r.OpsPerSec = 1e9 / r.NsPerOp
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// trimProcs strips the -N GOMAXPROCS suffix go test appends to names.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
