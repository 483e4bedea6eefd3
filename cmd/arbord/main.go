// Command arbord runs a replicated key-value service backed by the
// arbitrary tree-structured replica control protocol and exposes it over
// HTTP. Its replicas and serving client talk over loopback TCP with the
// binary codec:
//
//	GET  /get?key=K                 read through a read quorum
//	PUT  /put?key=K (body = value)  write through a write quorum (2PC)
//	GET  /metrics                   Prometheus text exposition: every counter, load and health
//	GET  /traces?last=N             recent per-operation traces (JSON)
//	POST /fault?do=ACTIONS          one fault event in the schedule syntax: crash=S, drain=S,
//	                                recover=S, recoverall, saturate=S, slowsite=S:20ms, …
//	                                (a crash loses the site's memory; recover replays its journal,
//	                                then catches up from the other levels; checkpoint compacts
//	                                every journal to one record per key; reconfigure=1-4-4
//	                                reshapes the tree live, migrating by catch-up)
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
		spec     = fs.String("spec", "1-3-5", "replica tree spec; with -wal-dir, for a fresh directory only: one that recorded a tree resumes it")
		listen   = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		seed     = fs.Int64("seed", 1, "random seed")
		walDir   = fs.String("wal-dir", "", "write-ahead-log directory, replayed at startup and by every recovery (default: journals in memory)")
		traceCap = fs.Int("trace-cap", obs.DefaultTraceCapacity, "operation traces kept in memory for /traces")
		adapt    = fs.Bool("adapt", false, "start with the adaptation controller enabled (toggle later via /controller)")
		inflight = fs.Int("maxinflight", 0, "per-replica admission limit on in-flight gated requests (0 = replica default; excess work sheds with a typed overload reply)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := tree.ParseSpec(*spec)
	if err != nil {
		return err
	}
	srv, err := newServer(t, cluster.Config{Seed: *seed, WALDir: *walDir, MaxInflight: *inflight}, *traceCap, nil)
	if err != nil {
		return err
	}
	if *adapt {
		srv.ctl.SetEnabled(true)
	}
	defer srv.Close()
	fmt.Printf("arbord: serving %s on http://%s\n", srv.cluster.Tree(), *listen)
	return http.ListenAndServe(*listen, srv)
}
