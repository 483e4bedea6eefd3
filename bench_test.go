// Benchmarks regenerating every table and figure of the paper (run with
// `go test -bench=. -benchmem`), plus operational benchmarks of the tree
// substrate, the quorum machinery, and the live cluster.
//
// Paper-artifact benches (each iteration regenerates the artifact):
//
//	BenchmarkTable1      — Table 1 (Figure 1 node counts)
//	BenchmarkExample34   — §3.4 worked example
//	BenchmarkFigure2     — Figure 2 (communication costs, six configurations)
//	BenchmarkFigure3     — Figure 3 (read loads)
//	BenchmarkFigure4     — Figure 4 (write loads)
//	BenchmarkLimits      — §3.3 asymptotic availabilities
//	BenchmarkLowerBound  — §3.3 new lower bound vs tree quorums
package arbor_test

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"arbor"
	"arbor/internal/core"
	"arbor/internal/figures"
	"arbor/internal/quorum"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := figures.Table1(); len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkExample34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := figures.Example34(); r.N != 8 {
			b.Fatal("bad example")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := figures.Figure2(300); len(s) != 6 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := figures.Figure3(300, figures.DefaultP); len(s) != 6 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := figures.Figure4(300, figures.DefaultP); len(s) != 6 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkLimits(b *testing.B) {
	ps := []float64{0.55, 0.65, 0.75, 0.85, 0.95}
	for i := 0; i < b.N; i++ {
		if rows := figures.Limits(ps); len(rows) != len(ps) {
			b.Fatal("bad limits")
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := figures.LowerBound(10); len(rows) != 10 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, err := figures.Ablation(64, 0.8); err != nil || len(rows) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm1Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tree.Algorithm1(1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	t, err := tree.Algorithm1(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Analyze(t)
		if a.ReadCost == 0 {
			b.Fatal("bad analysis")
		}
	}
}

func BenchmarkPickReadQuorum(b *testing.B) {
	t, err := tree.Algorithm1(1024)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.New(t)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := proto.PickReadQuorum(rng); len(q) == 0 {
			b.Fatal("empty quorum")
		}
	}
}

func BenchmarkPickWriteQuorum(b *testing.B) {
	t, err := tree.Algorithm1(1024)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.New(t)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, q := proto.PickWriteQuorum(rng); len(q) == 0 {
			b.Fatal("empty quorum")
		}
	}
}

func BenchmarkOptimalLoadLP(b *testing.B) {
	t := tree.Figure1()
	proto, err := core.New(t)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := proto.EnumerateBiCoterie()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quorum.OptimalLoad(bc.Reads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactAvailability(b *testing.B) {
	t := tree.Figure1()
	proto, err := core.New(t)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := proto.EnumerateBiCoterie()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quorum.ExactAvailability(bc.Reads, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster spins up a cluster+client pair for operational benchmarks.
func benchCluster(b *testing.B, spec string) (*arbor.Cluster, *arbor.Client) {
	b.Helper()
	t, err := arbor.ParseTree(spec)
	if err != nil {
		b.Fatal(err)
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	cli, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	return c, cli
}

func BenchmarkClusterRead(b *testing.B) {
	_, cli := benchCluster(b, "1-3-5")
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Read(ctx, "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterWrite(b *testing.B) {
	_, cli := benchCluster(b, "1-3-5")
	ctx := context.Background()
	val := []byte("v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Write(ctx, "k", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterByConfiguration measures live read and write latency of
// three 16-replica configurations — the ablation of Figure 2's trade-off on
// the running system.
func BenchmarkClusterByConfiguration(b *testing.B) {
	configs := []struct {
		name string
		make func() (*arbor.Tree, error)
	}{
		{name: "MostlyRead16", make: func() (*arbor.Tree, error) { return arbor.MostlyRead(16) }},
		{name: "Balanced16", make: func() (*arbor.Tree, error) { return arbor.NewTree(4, 4, 8) }},
		{name: "MostlyWrite17", make: func() (*arbor.Tree, error) { return arbor.MostlyWrite(17) }},
	}
	for _, cfg := range configs {
		t, err := cfg.make()
		if err != nil {
			b.Fatal(err)
		}
		c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cli, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name+"/read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cli.Read(ctx, "k"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/write", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
		})
		c.Close()
	}
}

func BenchmarkTxnCommitTwoKeys(b *testing.B) {
	_, cli := benchCluster(b, "1-3-5")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := cli.NewTxn()
		if err := tx.Write("a", []byte("1")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Write("b", []byte("2")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterWriteAlgorithm1_64(b *testing.B) {
	t, err := arbor.Algorithm1(64)
	if err != nil {
		b.Fatal(err)
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	cli, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	val := []byte("v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Write(ctx, "k", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterReadTailLatency measures read latency with one crashed
// site per level — the workload hedging exists for. The hedged client
// recovers a level at the hedge delay; the unhedged client waits out the
// full client timeout whenever the uniform shuffle (or an exploration
// probe) tries the dead site first, which dominates its p99.
func BenchmarkClusterReadTailLatency(b *testing.B) {
	run := func(b *testing.B, opts ...arbor.ClientOption) {
		t, err := arbor.ParseTree("1-3-3")
		if err != nil {
			b.Fatal(err)
		}
		c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1, ClientTimeout: 40 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cli, err := c.NewClient(opts...)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5; i++ { // warm the latency estimates
			if _, err := cli.Read(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
		proto := c.Protocol()
		var firsts arbor.Event
		for u := 0; u < proto.NumPhysicalLevels(); u++ {
			firsts.Crash = append(firsts.Crash, proto.LevelSites(u)[0])
		}
		if err := c.ApplyEvent(ctx, firsts); err != nil {
			b.Fatal(err)
		}
		durs := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := cli.Read(ctx, "k"); err != nil {
				b.Fatal(err)
			}
			durs = append(durs, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p99 := durs[len(durs)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-ms")
		b.ReportMetric(float64(durs[len(durs)/2].Nanoseconds())/1e6, "p50-ms")
	}
	b.Run("hedged", func(b *testing.B) {
		run(b, arbor.WithHedgeDelay(2*time.Millisecond))
	})
	b.Run("unhedged", func(b *testing.B) {
		run(b, arbor.WithHedging(false))
	})
}

// BenchmarkTCPContact measures one contact on the real path, the unit the
// paper's operation costs are counted in: rpc.Caller.Call of a ReadReq for
// a 128 B value to a started replica over loopback TCP with the binary
// codec. Every goroutine hand-over between the two sockets is in it and
// nothing else is — no engine, no quorum, no journal. "parallel" runs one
// caller, each on an endpoint of its own, per GOMAXPROCS (2 on the
// reference box). "large" is the serial contact with a 16 KiB value, where
// the bytes moved, not the hand-overs, are the cost.
func BenchmarkTCPContact(b *testing.B) {
	setup := func(b *testing.B, size int) func() *rpc.Caller {
		net := transport.NewTCPNetwork()
		b.Cleanup(net.Close)
		ep, err := net.Listen(1)
		if err != nil {
			b.Fatal(err)
		}
		r := replica.New(1, ep)
		r.Store().Apply("k", make([]byte, size), replica.Timestamp{Version: 1, Site: 1})
		r.Start()
		b.Cleanup(r.Stop)
		var clients atomic.Int64
		return func() *rpc.Caller {
			cep, err := net.Dial(transport.Addr(-clients.Add(1)))
			if err != nil {
				b.Error(err)
				return nil
			}
			c := rpc.NewCaller(cep, time.Second)
			b.Cleanup(c.Close)
			return c
		}
	}
	read := func(b *testing.B, c *rpc.Caller, size int) {
		resp, err := c.Call(context.Background(), 1, replica.ReadReq{Key: "k"})
		if rr, ok := resp.(replica.ReadResp); err != nil || !ok || len(rr.Value) != size {
			b.Errorf("read answered %T, %v", resp, err)
		}
	}
	serial := func(size int) func(b *testing.B) {
		return func(b *testing.B) {
			c := setup(b, size)()
			read(b, c, size) // twice: one call over each pool connection, so both are dialled
			read(b, c, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(b, c, size)
			}
		}
	}
	b.Run("serial", serial(128))
	b.Run("parallel", func(b *testing.B) {
		newCaller := setup(b, 128)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			c := newCaller()
			for c != nil && pb.Next() {
				read(b, c, 128)
			}
		})
	})
	b.Run("large", serial(16<<10))
}
