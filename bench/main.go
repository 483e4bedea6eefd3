// Command bench is arbor's reference benchmark: end-to-end and per-layer
// numbers for the path a deployment runs — concurrent callers → client →
// rpc.Caller → framed TCP with the binary codec → replica event loop →
// store → WAL — with the output checked for correctness in the same
// command. BENCHMARK.json at the repository root names its workloads and
// metrics; README.md beside this file explains every choice.
//
//	bash bench/run.sh --workload read-heavy --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload read-heavy --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh --workload read-heavy -layers
//	bash bench/run.sh -aa 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: read-heavy, write-heavy, deep-tree-mixed or large-value")
		seed    = flag.Int64("seed", 1, "seed of the generated op streams")
		seconds = flag.Int("seconds", refSeconds, "run length: segments are sized so that their measured time adds up to about this many seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the isolation table and a traced run")
		layers  = flag.Bool("layers", false, "print only the isolation table: each layer driven alone")
		aa      = flag.Int("aa", 0, "run two interleaved sets of this many runs of this binary and compare them (every workload unless -workload is given)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *aa > 0 {
		if err := runAA(ctx, *aa, *name, *seed, *seconds, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		return 2
	}
	root, tmpfs, err := walRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	fmt.Printf("arbor bench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d %s wal=%s tmpfs=%v\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), root, tmpfs)

	if *layers {
		ms, err := isolationTable(w, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printMetrics(os.Stdout, ms)
		return 0
	}
	var o outcome
	if *trace == 1 {
		o, err = runTraced(ctx, w, *seed, *seconds, root, os.Stdout)
	} else {
		o, err = runEndToEnd(ctx, w, *seed, *seconds, root, os.Stdout)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(os.Stdout, o.metrics)
	fmt.Printf("ops attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Println("INCORRECT:", p)
		fmt.Fprintln(os.Stderr, "bench: incorrect:", p) // whoever sees only one stream still sees why
	}
	if err := printResult(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

// result is the last line of standard output, the form the benchmark
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(o outcome) error {
	r := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]resultValue, len(o.metrics))}
	for _, m := range o.metrics {
		r.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("a metric has no value (no sample of its kind): %w", err)
	}
	fmt.Println(string(line))
	return nil
}
