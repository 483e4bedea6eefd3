package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"arbor/internal/tree"
)

// TestCloseStopsAllGoroutines guards against goroutine leaks: after a
// cluster with clients and traffic is closed, the goroutine count returns
// to its baseline — on the in-memory network and over TCP, whose read and
// accept loops Close must wait out.
func TestCloseStopsAllGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{
		{"in-memory", false},
		{"TCP", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			time.Sleep(20 * time.Millisecond)
			baseline := runtime.NumGoroutine()

			tr, err := tree.ParseSpec("1-3-5")
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(tr, Config{Seed: 1, TCP: tc.tcp})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				if _, err := cli.Read(ctx, "k"); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()

			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				runtime.GC()
				if runtime.NumGoroutine() <= baseline+2 {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			t.Errorf("goroutines: baseline %d, after close %d", baseline, runtime.NumGoroutine())
		})
	}
}
