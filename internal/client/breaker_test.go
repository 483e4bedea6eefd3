package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// tripBreaker burns the given site's breaker open with concurrent pings
// (each times out against the crashed replica).
func tripBreaker(t *testing.T, h *memHarness, site transport.Addr, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ping(h.cli, site)
		}()
	}
	wg.Wait()
	if st := h.cli.BreakerStates()[site]; st != BreakerOpen {
		t.Fatalf("breaker for site %d = %v after %d failures, want open", site, st, n)
	}
}

// TestOpenBreakerSiteSkippedWithoutTimeout is the acceptance criterion for
// the breaker/engine integration: a read quorum that would have probed a
// dead site completes fast because the open breaker is skipped in candidate
// ordering — no timeout is spent on it and no contact is recorded.
func TestOpenBreakerSiteSkippedWithoutTimeout(t *testing.T) {
	timeout := 60 * time.Millisecond
	h := newMemHarness(t, "1-2-3", WithTimeout(timeout), WithHedging(false))
	ctx := context.Background()

	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Site 2 (level 1 member) dies; trip its breaker.
	h.replicas[1].Crash()
	tripBreaker(t, h, 2, 4)

	start := time.Now()
	rd, err := h.cli.Read(ctx, "k")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("read with open breaker: %v", err)
	}
	if string(rd.Value) != "v" {
		t.Fatalf("read = %q, want v", rd.Value)
	}
	if elapsed >= timeout {
		t.Errorf("read took %v with site 2's breaker open; the skip should avoid burning the %v timeout", elapsed, timeout)
	}
	if rd.Contacts != h.proto.NumPhysicalLevels() {
		t.Errorf("read contacts = %d, want %d (breaker fast-fails are not contacts)",
			rd.Contacts, h.proto.NumPhysicalLevels())
	}
	if st := h.cli.BreakerStates()[2]; st != BreakerOpen {
		t.Errorf("breaker state for site 2 = %v, want still open", st)
	}
}

// TestBreakerRescueKeepsLevelAvailable: every member of a level has an open
// breaker but the sites are actually alive — the rescue pass force-probes
// them, so the breaker can never cost availability the protocol had.
func TestBreakerRescueKeepsLevelAvailable(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithTimeout(60*time.Millisecond), WithHedging(false))
	ctx := context.Background()

	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Crash level 1 entirely, trip both breakers, then silently revive the
	// sites: the breakers are now stale.
	h.replicas[1].Crash()
	h.replicas[2].Crash()
	tripBreaker(t, h, 2, 4)
	tripBreaker(t, h, 3, 4)
	h.replicas[1].Recover()
	h.replicas[2].Recover()

	rd, err := h.cli.Read(ctx, "k")
	if err != nil {
		t.Fatalf("read with level 1 fully breaker-open: %v", err)
	}
	if string(rd.Value) != "v" {
		t.Fatalf("read = %q, want v", rd.Value)
	}
}

// TestWriteBreakerRescue: writes, too, survive a level whose breakers are
// stale-open (prepare fanout retries with ForceProbe).
func TestWriteBreakerRescue(t *testing.T) {
	h := newMemHarness(t, "1-2", WithTimeout(60*time.Millisecond), WithHedging(false))
	ctx := context.Background()

	h.replicas[0].Crash()
	h.replicas[1].Crash()
	tripBreaker(t, h, 1, 4)
	tripBreaker(t, h, 2, 4)
	h.replicas[0].Recover()
	h.replicas[1].Recover()

	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("write with all breakers open: %v", err)
	}
}

// TestBreakerDisabledOption: WithBreaker(false) removes breaker behaviour
// entirely (the deterministic-simulation configuration).
func TestBreakerDisabledOption(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithBreaker(false))
	if states := h.cli.BreakerStates(); states != nil {
		t.Errorf("BreakerStates = %v, want nil with breakers disabled", states)
	}
	if _, err := h.cli.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestRefusingSiteSinksInOrdering: a catching-up refusal pushes the site to
// the back of its level's candidate order without polluting the latency and
// failure estimates, and a later successful serve restores it.
func TestRefusingSiteSinksInOrdering(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	addr := transport.Addr(2)

	h.cli.book.observe(time.Now(), addr, outcomeShed, 0)
	var u = -1
	for lvl := 0; lvl < h.proto.NumPhysicalLevels(); lvl++ {
		for _, s := range h.proto.LevelSites(lvl) {
			if transport.Addr(s) == addr {
				u = lvl
			}
		}
	}
	for i := 0; i < 10; i++ {
		order, _ := h.cli.orderedSites(time.Now(), nil, h.cli.levels.Load(), u)
		if order[len(order)-1] != addr {
			t.Fatalf("refusing site %d not last in %v", addr, order)
		}
	}
	// A successful record clears the refusal mark.
	h.cli.book.observe(time.Now(), addr, outcomeServed, time.Millisecond)
	if h.cli.book.peek(addr).refusing {
		t.Error("refusal mark survived a successful serve")
	}
}

// TestCatchingUpRefusalFallsThrough: a client read against a level whose
// first candidate refuses (catching up) falls through to the level's other
// member and succeeds — and ErrCatchingUp identifies the refusal.
func TestCatchingUpRefusalFallsThrough(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithHedging(false))
	ctx := context.Background()

	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Pin site 2 in the catching-up state via an unreachable sync peer.
	h.replicas[1].Crash()
	h.replicas[1].RecoverCatchingUp(replica.SyncPlan{
		Peers:  [][]transport.Addr{{transport.Addr(9999)}},
		Config: replica.SyncConfig{CallTimeout: 10 * time.Millisecond},
	})
	for i := 0; i < 5; i++ {
		rd, err := h.cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read %d with site 2 catching up: %v", i, err)
		}
		if string(rd.Value) != "v" {
			t.Fatalf("read = %q, want v", rd.Value)
		}
	}
	// Direct probe of the refusing site surfaces ErrCatchingUp.
	a := h.cli.fanout(ctx, []transport.Addr{2}, nil, "read", replica.ReadReq{Key: "k"}, false, false)
	defer a.release()
	if err := a.slots[0].err; !errors.Is(err, ErrCatchingUp) {
		t.Errorf("direct probe err = %v, want ErrCatchingUp", err)
	}
}
