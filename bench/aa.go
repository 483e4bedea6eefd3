package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the benchmark as two interleaved sets (A, B, B, A, …) of n
// runs each of this same binary, every run its own process, and holds the
// sets against each other the way the driver holds a change against its
// parent: two sets of the same code must agree within every bound, or the
// benchmark cannot tell a regression from its own noise. Run i of either
// set uses seed+i.
func runAA(ctx context.Context, n int, only string, seed int64, seconds int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the bounds come from BENCHMARK.json at the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	todo := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			return err
		}
		todo = []workloadDef{w}
	}
	failed := false
	for _, w := range todo {
		var sets [2]map[string][]float64
		sets[0], sets[1] = make(map[string][]float64), make(map[string][]float64)
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				start := time.Now()
				r, err := runOnce(ctx, exe, w.name, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s, set %c, run %d: %w", w.name, 'A'+set, i+1, err)
				}
				for name, v := range r.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				fmt.Fprintf(out, "%s set %c run %d/%d seed %d: %.1f s, ops_per_s %.0f\n",
					w.name, 'A'+set, i+1, n, seed+int64(i), time.Since(start).Seconds(), r.Metrics["ops_per_s"].Value)
			}
		}
		fmt.Fprintf(out, "\n%s, %d runs per set\n", w.name, n)
		fmt.Fprintf(out, "%-20s %-6s %12s %12s %8s %9s %9s %6s  %s\n", "metric", "unit", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: runs did not report %s", w.name, m.Name)
			}
			ma, mb := median(a), median(b)
			// worse is how much worse B's median is than A's, as a share
			// of A's; negative when B reads better.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			// The driver exempts setup_s from the spread test only.
			ok := worse <= m.Bound && -worse <= m.Bound && (m.Name == "setup_s" || (sa <= m.Bound && sb <= m.Bound))
			verdict := "PASS"
			if !ok {
				verdict, failed = "FAIL", true
			}
			fmt.Fprintf(out, "%-20s %-6s %12.3f %12.3f %+7.1f%% %8.1f%% %8.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, ma, mb, (mb-ma)/ma*100, sa*100, sb*100, m.Bound*100, verdict)
		}
		fmt.Fprintln(out)
	}
	if failed {
		return fmt.Errorf("two sets of runs of the same binary disagree by more than a bound")
	}
	return nil
}

// runOnce runs one end-to-end run in its own process and parses the result
// line. The child has ended by the time it returns.
func runOnce(ctx context.Context, exe, name string, seed int64, seconds int) (result, error) {
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, stdout)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return r, fmt.Errorf("run was not correct:\n%s", stdout)
	}
	return r, nil
}
