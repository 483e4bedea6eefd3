package cluster

import (
	"context"
	"errors"
	"testing"

	"arbor/internal/client"
	"arbor/internal/replica"
)

// TestInFlightWriteFaultWindows pins the protocol's behaviour when a level
// member fail-stops inside a write's two-phase window. A crash between
// prepare and commit must surface ErrInDoubt — the decision was commit, but
// not every member acknowledged it — and a write whose value reached no
// member may never be reported as a plain success.
func TestInFlightWriteFaultWindows(t *testing.T) {
	cases := []struct {
		name string
		// failAll arms the fail point on every member of the written level;
		// otherwise only the first member is armed.
		failAll bool
		point   replica.FailPoint
		// wantErr is the sentinel the write must match, nil for success.
		wantErr error
		// wantVisible asserts a recovered read returns the written value;
		// wantLost asserts it must not.
		wantVisible bool
		wantLost    bool
	}{
		{
			name:        "one member crashes between prepare and commit",
			point:       replica.FailOnCommit,
			wantErr:     client.ErrInDoubt,
			wantVisible: true, // the surviving members committed
		},
		{
			name:     "every member crashes between prepare and commit",
			failAll:  true,
			point:    replica.FailOnCommit,
			wantErr:  client.ErrInDoubt,
			wantLost: true, // no member applied the write; success would lie
		},
		{
			name:        "one member crashes before voting in prepare",
			point:       replica.FailOnPrepare,
			wantErr:     nil, // the level aborts cleanly and another takes over
			wantVisible: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, "1-3-5")
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			members := c.Protocol().LevelSites(0)
			armed := members[:1]
			if tc.failAll {
				armed = members
			}
			for _, s := range armed {
				c.Replica(s).SetFailPoint(tc.point)
			}

			wr, err := cli.WriteAt(ctx, "k", []byte("v1"), 0)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("write error = %v, want errors.Is(err, %v)", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatalf("write: %v", err)
			}

			apply(t, c, "recoverall")
			awaitSync(t, c)
			rd, err := cli.Read(ctx, "k")
			switch {
			case tc.wantVisible:
				if err != nil || string(rd.Value) != "v1" {
					t.Errorf("recovered read = %q, %v; want v1", rd.Value, err)
				}
				if rd.TS != wr.TS {
					t.Errorf("recovered read TS = %v, want the write's %v", rd.TS, wr.TS)
				}
			case tc.wantLost:
				if err == nil && string(rd.Value) == "v1" {
					t.Error("lost write became visible; the in-doubt report was the only correct outcome")
				}
				if err != nil && !errors.Is(err, client.ErrNotFound) {
					t.Errorf("recovered read of lost write = %v, want ErrNotFound", err)
				}
			}
		})
	}
}
