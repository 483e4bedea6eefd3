// Command simrun runs a workload against a simulated replica cluster and
// compares the measured communication costs and per-replica loads against
// the paper's closed-form predictions.
//
// Usage:
//
//	simrun -spec 1-3-5 -ops 2000 -read-fraction 0.8
//	simrun -algorithm1 100 -ops 5000 -crash 3,17
//	simrun -spec 1-4-4-8 -latency 2ms -drop 0.01
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"arbor/internal/cluster"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/tree"
	"arbor/internal/wire"
	"arbor/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	var (
		spec         = fs.String("spec", "", "tree spec, e.g. 1-3-5")
		algorithm1   = fs.Int("algorithm1", 0, "use the ARBITRARY tree of Algorithm 1 for n replicas")
		ops          = fs.Int("ops", 2000, "operations to run")
		readFraction = fs.Float64("read-fraction", 0.8, "fraction of operations that are reads")
		keys         = fs.Int("keys", 16, "key population")
		zipf         = fs.Float64("zipf", 0, "Zipf skew parameter (>1 enables skewed keys)")
		clients      = fs.Int("clients", 1, "concurrent clients")
		seed         = fs.Int64("seed", 1, "random seed")
		latency      = fs.Duration("latency", 0, "per-message network latency")
		jitter       = fs.Duration("jitter", 0, "latency jitter")
		drop         = fs.Float64("drop", 0, "message drop probability")
		timeout      = fs.Duration("timeout", 250*time.Millisecond, "client failure-detection timeout")
		crash        = fs.String("crash", "", "comma-separated site IDs to crash before the run")
		schedule     = fs.String("schedule", "", `timed failure schedule, e.g. "50ms:crash=1,2;200ms:recoverall"`)
		compare      = fs.Bool("compare", false, "run the spectrum's configurations side by side and compare measured costs to theory")
		metrics      = fs.Bool("metrics", false, "instrument the run and print per-level load and latency quantile tables")
		traceN       = fs.Int("trace", 0, "record operation traces and print the last N after the run")
		codec        = fs.String("codec", "", `wire codec to round-trip every message through ("binary"; empty = in-memory delivery without serialization)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 {
		return fmt.Errorf("-clients must be at least 1, not %d", *clients)
	}
	if *compare {
		n := *algorithm1
		if n == 0 {
			n = 64
		}
		return runComparison(n, *ops, *readFraction, *seed)
	}

	var (
		t   *tree.Tree
		err error
	)
	switch {
	case *spec != "":
		t, err = tree.ParseSpec(*spec)
	case *algorithm1 > 0:
		t, err = tree.Algorithm1(*algorithm1)
	default:
		return errors.New("one of -spec or -algorithm1 is required")
	}
	if err != nil {
		return err
	}

	opts := []cluster.Option{
		cluster.WithSeed(*seed),
		cluster.WithClientTimeout(*timeout),
	}
	var observer *obs.Observer
	if *metrics || *traceN > 0 {
		traceCap := *traceN
		if traceCap <= 0 {
			traceCap = 1
		}
		observer = obs.NewObserver(traceCap)
		opts = append(opts, cluster.WithObserver(observer))
	}
	if *latency > 0 || *jitter > 0 {
		opts = append(opts, cluster.WithLatency(*latency, *jitter))
	}
	if *drop > 0 {
		opts = append(opts, cluster.WithDropProbability(*drop))
	}
	if *codec != "" {
		wc, err := wire.ByName(*codec)
		if err != nil {
			return err
		}
		opts = append(opts, cluster.WithCodec(wc))
	}
	c, err := cluster.New(t, opts...)
	if err != nil {
		return err
	}
	defer c.Close()

	if *crash != "" {
		for _, part := range strings.Split(*crash, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -crash entry %q: %w", part, err)
			}
			if err := c.Crash(tree.SiteID(id)); err != nil {
				return err
			}
			fmt.Printf("crashed site %d\n", id)
		}
	}

	fmt.Printf("cluster: %s\n", t)
	a := core.Analyze(t)
	fmt.Printf("theory:  read cost %d, write cost %.2f, read load %.4f, write load %.4f\n\n",
		a.ReadCost, a.WriteCostAvg, a.ReadLoad, a.WriteLoad)

	var schedErr func() error
	if *schedule != "" {
		sched, err := cluster.ParseSchedule(*schedule)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, schedErr = c.RunSchedule(ctx, sched)
		fmt.Printf("running failure schedule with %d events\n", len(sched))
	}

	total := runClients(c, *clients, *ops, *readFraction, *keys, *zipf, *seed)
	if schedErr != nil {
		if err := schedErr(); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "schedule:", err)
		}
	}

	fmt.Printf("ran %d ops in %v (%.0f ops/s)\n", total.Ops(), total.Elapsed,
		float64(total.Ops())/total.Elapsed.Seconds())
	fmt.Printf("  reads: %d ok (%d not-found), %d failed  [p50 %v, p99 %v]\n",
		total.Reads, total.NotFound, total.ReadFailures,
		total.ReadLatency.P50, total.ReadLatency.P99)
	fmt.Printf("  writes: %d ok, %d failed  [p50 %v, p99 %v]\n",
		total.Writes, total.WriteFailures,
		total.WriteLatency.P50, total.WriteLatency.P99)

	rep := c.LoadReport()
	// Version reads issued by writes are attributed to DiscoveryServes, so
	// the read-load denominator is read operations only.
	readOps := total.Reads + total.ReadFailures
	fmt.Printf("\nempirical loads: read %.4f (theory %.4f), write %.4f (theory %.4f)\n",
		rep.MaxReadLoad(readOps), a.ReadLoad, rep.MaxWriteLoad(total.Writes+total.WriteFailures), a.WriteLoad)

	st := c.NetworkStats()
	fmt.Printf("network: %d sent, %d delivered, %d dropped, %d delayed\n",
		st.Sent, st.Delivered, st.Dropped, st.Delayed)
	if st.WireBytes > 0 {
		fmt.Printf("wire: %d bytes through the %s codec\n", st.WireBytes, *codec)
	}

	fmt.Println("\nper-site participations (read-serves / write-serves / discovery-serves):")
	for _, s := range rep.Sites {
		fmt.Printf("  site %3d: %6d / %6d / %6d\n", s.Site, s.ReadServes, s.WriteServes, s.DiscoveryServes)
	}

	if *metrics {
		printMetricTables(c, observer)
	}
	if *traceN > 0 {
		printTraces(observer, *traceN)
	}
	return nil
}

// printMetricTables prints the observer-backed per-level load table and the
// client latency quantiles gathered by the instrumented run.
func printMetricTables(c *cluster.Cluster, observer *obs.Observer) {
	snap := c.StatsSnapshot()
	perSite := make(map[tree.SiteID]cluster.SiteLoad, len(snap.Load.Sites))
	for _, s := range snap.Load.Sites {
		perSite[s.Site] = s
	}
	fmt.Println("\nper-level load (sites, read-serves, write-serves, discovery-serves):")
	for u := 0; u < snap.Proto.NumPhysicalLevels(); u++ {
		sites := snap.Proto.LevelSites(u)
		var reads, writes, disc uint64
		for _, s := range sites {
			reads += perSite[s].ReadServes
			writes += perSite[s].WriteServes
			disc += perSite[s].DiscoveryServes
		}
		fmt.Printf("  level %d: %3d sites, %8d reads, %8d writes, %8d discovery\n",
			u, len(sites), reads, writes, disc)
	}

	dur := observer.Registry.HistogramVec("arbor_client_op_duration_seconds",
		"End-to-end client operation latency, including level fallbacks and retries.", "op")
	fmt.Println("\nlatency quantiles (histogram estimates):")
	for _, op := range []string{"read", "write"} {
		h := dur.With(op)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-5s p50 %-10v p90 %-10v p99 %-10v (n=%d)\n",
			op, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Count())
	}
}

// printTraces prints a one-line summary per recorded operation trace.
func printTraces(observer *obs.Observer, n int) {
	traces := observer.Traces.Last(n)
	fmt.Printf("\nlast %d operation traces:\n", len(traces))
	for _, t := range traces {
		fmt.Printf("  #%d %-5s key=%-12q outcome=%-11s contacts=%d elapsed=%v levels=%d\n",
			t.ID, t.Op, t.Key, t.Outcome, t.Contacts, t.End.Sub(t.Start), len(t.Attempts))
	}
}

// runClients spreads the operation budget across the requested clients.
func runClients(c *cluster.Cluster, clients, ops int, readFraction float64, keys int, zipf float64, seed int64) cluster.RunReport {
	ctx := context.Background()
	type result struct {
		rep cluster.RunReport
		err error
	}
	results := make(chan result, clients)
	share := ops / clients
	start := time.Now()
	for i := 0; i < clients; i++ {
		n := share
		if i == clients-1 {
			n = ops - share*(clients-1)
		}
		go func(i, n int) {
			cli, err := c.NewClient()
			if err != nil {
				results <- result{err: err}
				return
			}
			gen, err := workload.NewGenerator(workload.Config{
				ReadFraction: readFraction,
				Keys:         keys,
				ZipfS:        zipf,
				Seed:         seed + int64(i),
			})
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{rep: cluster.RunWorkload(ctx, cli, gen, n)}
		}(i, n)
	}
	var total cluster.RunReport
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "client error:", r.err)
			continue
		}
		total.Reads += r.rep.Reads
		total.Writes += r.rep.Writes
		total.ReadFailures += r.rep.ReadFailures
		total.WriteFailures += r.rep.WriteFailures
		total.NotFound += r.rep.NotFound
		total.ReadLatency = total.ReadLatency.Merge(r.rep.ReadLatency)
		total.WriteLatency = total.WriteLatency.Merge(r.rep.WriteLatency)
	}
	total.Elapsed = time.Since(start)
	return total
}
