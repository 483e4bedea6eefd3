// Command arbord runs a replicated key-value service backed by the
// arbitrary tree-structured replica control protocol and exposes it over
// HTTP. Its replicas and serving client talk over loopback TCP with the
// binary codec:
//
//	GET  /get?key=K                 read through a read quorum
//	PUT  /put?key=K (body = value)  write through a write quorum (2PC)
//	GET  /stats                     cluster metrics (JSON)
//	GET  /metrics                   Prometheus text exposition
//	GET  /traces?last=N             recent per-operation traces (JSON)
//	POST /checkpoint                persist all replica stores to -data-dir
//	POST /crash?site=S              fail-stop a replica
//	POST /drain?site=S              gracefully drain a replica (finish in-flight 2PC, then down)
//	POST /recover?site=S            recover a replica (or all with site=all; sync=true to catch up first)
//	POST /reconfigure?spec=1-4-4    reshape the tree live
//	GET  /controller?last=N         adaptation controller state + decision journal (JSON)
//	POST /controller?action=enable  enable (or disable) the adaptation controller
//	GET  /debug/pprof/              net/http/pprof: goroutine, heap, profile, trace, …
//
// Usage:
//
//	arbord -spec 1-3-5 -listen 127.0.0.1:8080 -adapt
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arbord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("arbord", flag.ContinueOnError)
	var (
		spec     = fs.String("spec", "1-3-5", "replica tree spec")
		listen   = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		seed     = fs.Int64("seed", 1, "random seed")
		data     = fs.String("data-dir", "", "checkpoint directory (restored at startup when present)")
		walDir   = fs.String("wal-dir", "", "write-ahead-log directory (replayed at startup)")
		traceCap = fs.Int("trace-cap", obs.DefaultTraceCapacity, "operation traces kept in memory for /traces")
		adapt    = fs.Bool("adapt", false, "start with the adaptation controller enabled (toggle later via /controller)")
		inflight = fs.Int("maxinflight", 0, "per-replica admission limit on in-flight gated requests (0 = replica default; excess work sheds with a typed overload reply)")
		budget   = fs.String("retrybudget", "", `serving client's retry budget as "perOp:burst", e.g. "0.1:10" (empty = retries ungated)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := tree.ParseSpec(*spec)
	if err != nil {
		return err
	}
	var cliOpts []client.Option
	if *budget != "" {
		perOp, burst, err := parseRetryBudget(*budget)
		if err != nil {
			return err
		}
		cliOpts = append(cliOpts, client.WithRetryBudget(perOp, burst))
	}
	srv, err := newServer(t, cluster.Config{Seed: *seed, WALDir: *walDir, MaxInflight: *inflight}, *traceCap, cliOpts)
	if err != nil {
		return err
	}
	if *data != "" {
		srv.dataDir = *data
		if err := srv.cluster.RestoreCheckpoint(*data); err != nil {
			srv.Close()
			return err
		}
	}
	if *adapt {
		srv.ctl.SetEnabled(true)
	}
	defer srv.Close()
	fmt.Printf("arbord: serving %s on http://%s\n", t, *listen)
	return http.ListenAndServe(*listen, srv)
}

// parseRetryBudget reads the -retrybudget "perOp:burst" syntax: tokens
// earned per operation (a small fraction, SRE-style retry cap) and the
// bucket's burst capacity in whole retries.
func parseRetryBudget(s string) (perOp float64, burst int, err error) {
	rate, after, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf(`retrybudget %q: want "perOp:burst", e.g. "0.1:10"`, s)
	}
	perOp, err = strconv.ParseFloat(rate, 64)
	if err != nil || perOp <= 0 {
		return 0, 0, fmt.Errorf("retrybudget %q: per-op rate must be a positive number", s)
	}
	burst, err = strconv.Atoi(after)
	if err != nil || burst <= 0 {
		return 0, 0, fmt.Errorf("retrybudget %q: burst must be a positive integer", s)
	}
	return perOp, burst, nil
}
