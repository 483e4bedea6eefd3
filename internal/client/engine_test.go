package client

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// newEngineHarness is newMemHarness with control over the transport, for
// engine tests that need message latency to make probes overlap.
func newEngineHarness(t *testing.T, spec string, net transport.NetConfig, opts ...Option) *memHarness {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork(1, net)
	h := &memHarness{net: n, proto: proto}
	for _, site := range tr.Sites() {
		ep, err := n.Register(transport.Addr(site))
		if err != nil {
			t.Fatal(err)
		}
		r := replica.New(int(site), ep)
		r.Start()
		h.replicas = append(h.replicas, r)
	}
	cliEP, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithTimeout(80 * time.Millisecond), WithSeed(1)}, opts...)
	h.cli = New(-1, cliEP, proto, opts...)
	t.Cleanup(func() {
		h.cli.Close()
		for _, r := range h.replicas {
			r.Stop()
		}
		n.Close()
	})
	return h
}

// replicaFor returns the harness replica running the given site address.
func (h *memHarness) replicaFor(t *testing.T, addr transport.Addr) *replica.Replica {
	t.Helper()
	for _, r := range h.replicas {
		if r.Site() == int(addr) {
			return r
		}
	}
	t.Fatalf("no replica for site %d", addr)
	return nil
}

// TestOrderedSitesDeterministicUnderSeed: two clients with the same seed
// (on independent networks) must produce identical probe orders call after
// call — the property that makes WithSeed runs reproducible even with the
// engine's exploration draws in the stream.
func TestOrderedSitesDeterministicUnderSeed(t *testing.T) {
	h1 := newMemHarness(t, "1-3-5", WithSeed(7))
	h2 := newMemHarness(t, "1-3-5", WithSeed(7))
	for i := 0; i < 200; i++ {
		u := i % h1.proto.NumPhysicalLevels()
		a, _ := h1.cli.orderedSites(time.Now(), nil, h1.cli.levels.Load(), u)
		b, _ := h2.cli.orderedSites(time.Now(), nil, h2.cli.levels.Load(), u)
		if len(a) != len(b) {
			t.Fatalf("call %d: lengths differ: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("call %d: orders diverge: %v vs %v", i, a, b)
			}
		}
		la := h1.cli.orderedLevels(h1.cli.levels.Load(), nil, -1)
		lb := h2.cli.orderedLevels(h2.cli.levels.Load(), nil, -1)
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("call %d: level orders diverge: %v vs %v", i, la, lb)
			}
		}
	}
}

// TestOrderedSitesDeprioritizesUnhealthy feeds the site book a healthy, a
// failing and a very slow site: ordering must put the healthy site first
// and the failing site last in the vast majority of draws (exploration
// occasionally promotes a random candidate — that is by design).
func TestOrderedSitesDeprioritizesUnhealthy(t *testing.T) {
	h := newMemHarness(t, "1-3")
	sites := h.proto.LevelSites(0)
	healthy, failing, slow := transport.Addr(sites[0]), transport.Addr(sites[1]), transport.Addr(sites[2])
	for i := 0; i < 8; i++ {
		h.cli.book.observe(time.Now(), healthy, outcomeServed, time.Millisecond)
		h.cli.book.observe(time.Now(), failing, outcomeOverdue, time.Millisecond)
		h.cli.book.observe(time.Now(), slow, outcomeServed, 50*time.Millisecond)
	}
	const draws = 200
	firstHealthy, lastFailing := 0, 0
	for i := 0; i < draws; i++ {
		out, _ := h.cli.orderedSites(time.Now(), nil, h.cli.levels.Load(), 0)
		if out[0] == healthy {
			firstHealthy++
		}
		if out[len(out)-1] == failing {
			lastFailing++
		}
	}
	// Exploration fires on 1/16 of draws; everything else must follow the
	// learned order exactly.
	if firstHealthy < draws*8/10 {
		t.Errorf("healthy site first in only %d/%d draws", firstHealthy, draws)
	}
	if lastFailing < draws*8/10 {
		t.Errorf("failing site last in only %d/%d draws", lastFailing, draws)
	}
}

// TestOrderedLevelsDeprioritizesFailingMember: a level is as available as
// its least available member, so one failing site must sink its whole
// level to the back of the write rotation.
func TestOrderedLevelsDeprioritizesFailingMember(t *testing.T) {
	h := newMemHarness(t, "1-2-2")
	bad := transport.Addr(h.proto.LevelSites(0)[0])
	for i := 0; i < 8; i++ {
		h.cli.book.observe(time.Now(), bad, outcomeOverdue, time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		order := h.cli.orderedLevels(h.cli.levels.Load(), nil, -1)
		if order[0] != 1 || order[len(order)-1] != 0 {
			t.Fatalf("draw %d: order = %v, want level 0 last", i, order)
		}
	}
}

// TestLevelHedgeDelayGating checks the hedge gates: cold levels and a client
// with hedging disabled never hedge, the delay is floored at twice the
// level's best round-trip, and a floor at or above the client timeout
// disables hedging entirely.
func TestLevelHedgeDelayGating(t *testing.T) {
	hedge5 := WithHedgeDelay(5 * time.Millisecond)
	h := newMemHarness(t, "1-2", hedge5) // 80ms client timeout
	sites := h.proto.LevelSites(0)
	addrs := []transport.Addr{transport.Addr(sites[0]), transport.Addr(sites[1])}

	// levelHedgeDelay judges the level's health as an ordering pass reads it.
	hedgeDelay := func(c *Client) time.Duration {
		return c.levelHedgeDelay(c.book.snapshot(time.Now(), addrs, 0, nil))
	}
	if d := hedgeDelay(h.cli); d != 0 {
		t.Error("cold level must not hedge")
	}
	h.cli.book.observe(time.Now(), addrs[0], outcomeServed, time.Millisecond)
	if d := hedgeDelay(h.cli); d != 5*time.Millisecond {
		t.Errorf("warm level: delay = %v; want 5ms", d)
	}
	// With hedging disabled, not even a warm level hedges.
	off := newMemHarness(t, "1-2", hedge5, WithHedging(false))
	off.cli.book.observe(time.Now(), addrs[0], outcomeServed, time.Millisecond)
	if d := hedgeDelay(off.cli); d != 0 {
		t.Errorf("hedging disabled: delay = %v; want 0", d)
	}
	// A best round-trip of 10ms floors the 5ms configured delay to 20ms.
	h2 := newMemHarness(t, "1-2", hedge5)
	for i := 0; i < 20; i++ {
		h2.cli.book.observe(time.Now(), addrs[0], outcomeServed, 10*time.Millisecond)
	}
	if d := hedgeDelay(h2.cli); d != 20*time.Millisecond {
		t.Errorf("floored delay = %v; want 20ms", d)
	}
	// A uniformly slow level (floor >= timeout) must not hedge at all.
	h3 := newMemHarness(t, "1-2", hedge5)
	for i := 0; i < 20; i++ {
		h3.cli.book.observe(time.Now(), addrs[0], outcomeServed, 60*time.Millisecond)
	}
	if d := hedgeDelay(h3.cli); d != 0 {
		t.Error("level with 2×best >= timeout must not hedge")
	}
}

// TestHedgedReadRescuesCrashedSite is the engine's acceptance scenario: with
// one site of a two-site level crashed, a warm hedging client's reads must
// complete at hedge-delay timescales, never waiting out the client timeout,
// and at least one level must be won by a hedge probe.
func TestHedgedReadRescuesCrashedSite(t *testing.T) {
	o := obs.NewObserver(8)
	h := newMemHarness(t, "1-2",
		WithTimeout(250*time.Millisecond), WithHedgeDelay(2*time.Millisecond), WithObserver(o))
	ctx := context.Background()
	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sites := h.proto.LevelSites(0)
	h.replicaFor(t, transport.Addr(sites[0])).Crash()
	// Seed both sites with equal warm scores (live warm-up traffic would
	// leave them in noise-dependent latency buckets): the shuffle keeps
	// picking the crashed site first about half the time, the hedge gate is
	// on, and the learned floor stays far below the hedge delay.
	for i := 0; i < 20; i++ {
		h.cli.book.observe(time.Now(), transport.Addr(sites[0]), outcomeServed, 5*time.Microsecond)
		h.cli.book.observe(time.Now(), transport.Addr(sites[1]), outcomeServed, 5*time.Microsecond)
	}

	for i := 0; i < 40; i++ {
		start := time.Now()
		rd, err := h.cli.Read(ctx, "k")
		if err != nil {
			t.Fatalf("read %d during outage: %v", i, err)
		}
		if string(rd.Value) != "v" {
			t.Fatalf("read %d = %q", i, rd.Value)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("read %d took %v — waited out the timeout instead of hedging", i, d)
		}
	}
	if h.cli.instr.hedges.Value() == 0 {
		t.Error("no hedge probes launched despite a crashed primary")
	}
	if h.cli.instr.hedgeWins.Value() == 0 {
		t.Error("no level won by a hedge probe despite a crashed primary")
	}
}

// TestReadCoalescing: concurrent reads of one key through one client must
// collapse into far fewer quorum assemblies than callers, while every
// caller still gets the value and its own metrics accounting.
func TestReadCoalescing(t *testing.T) {
	o := obs.NewObserver(64)
	h := newEngineHarness(t, "1-2-2",
		transport.NetConfig{Latency: 2 * time.Millisecond},
		WithTimeout(250*time.Millisecond), WithObserver(o))
	ctx := context.Background()
	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := h.cli.Metrics()

	const callers = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	errs := make([]error, callers)
	vals := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			rd, err := h.cli.Read(ctx, "k")
			errs[i], vals[i] = err, rd.Value
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(vals[i]) != "v" {
			t.Fatalf("caller %d read %q", i, vals[i])
		}
	}
	after := h.cli.Metrics()
	if got := after.Reads - before.Reads; got != callers {
		t.Errorf("Reads delta = %d, want %d (every caller counts)", got, callers)
	}
	// Un-coalesced, 16 reads on two levels cost 32 contacts; coalesced
	// flights cost 2 each. Allow a few flights for scheduling skew.
	if delta := after.ReadContacts - before.ReadContacts; delta >= 2*callers {
		t.Errorf("ReadContacts delta = %d — reads did not coalesce", delta)
	}
	if h.cli.instr.coalesced.Value() == 0 {
		t.Error("no reads accounted as coalesced")
	}
}

// TestReadCoalescingLateJoin: a follower that joins once the leader's quorum
// is under way — its request sent, its reply held back — makes the flight's
// done channel then, and leader and follower return the same result from
// the one contact.
func TestReadCoalescingLateJoin(t *testing.T) {
	h := newScriptHarness(t, "1-2", byArrivalAlways(silent), WithHedgeDelay(time.Hour))
	ctx := context.Background()
	type result struct {
		res ReadResult
		err error
	}
	leader, follower := make(chan result, 1), make(chan result, 1)
	go func() {
		res, err := h.cli.Read(ctx, "k")
		leader <- result{res, err}
	}()
	<-h.conn.seen // the leader's one request is out
	go func() {
		res, err := h.cli.Read(ctx, "k")
		follower <- result{res, err}
	}()
	for joined := false; !joined; {
		h.cli.flightMu.Lock()
		f := h.cli.flights["k"]
		joined = f != nil && f.done != nil
		h.cli.flightMu.Unlock()
		if f == nil {
			t.Fatal("the leader's flight ended before its reply was sent")
		}
		runtime.Gosched()
	}
	req := h.conn.requests()[0]
	h.conn.in <- transport.Message{From: req.To, To: -1, Payload: h.conn.replyFrom(req.To, req.Payload, false)}

	l, f := <-leader, <-follower
	if l.err != nil || f.err != nil {
		t.Fatalf("leader: %v, follower: %v", l.err, f.err)
	}
	if string(l.res.Value) != "v" || string(f.res.Value) != "v" || l.res.TS != f.res.TS || !f.res.Found {
		t.Errorf("leader read %q@%v, follower %q@%v", l.res.Value, l.res.TS, f.res.Value, f.res.TS)
	}
	if l.res.Contacts != 1 || f.res.Contacts != 0 || len(h.conn.requests()) != 1 {
		t.Errorf("contacts: leader %d, follower %d, sent %d; want 1, 0, 1", l.res.Contacts, f.res.Contacts, len(h.conn.requests()))
	}
	if n := h.cli.instr.coalesced.Value(); n != 1 {
		t.Errorf("coalesced reads = %d, want 1", n)
	}
}

// TestWriteToLevelRejectsNegative: a negative pinned level is an error that
// names the level, and nothing is written.
func TestWriteToLevelRejectsNegative(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	for _, u := range []int{-1, -2} {
		_, err := h.cli.WriteAt(ctx, "k", []byte("v"), u)
		if err == nil {
			t.Fatalf("WriteAt(%d) succeeded", u)
		}
		if want := fmt.Sprintf("level %d outside", u); !strings.Contains(err.Error(), want) {
			t.Errorf("WriteAt(%d) = %v; want it to say %q", u, err, want)
		}
	}
	if _, err := h.cli.Read(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read after rejected writes: %v, want ErrNotFound", err)
	}
}

// TestPerOpReadWriteOptions exercises the choices an operation still has end
// to end: a pinned write level per write, out-of-range rejection, and hedge
// control, which is set per client (hedging off, or a short hedge delay).
func TestPerOpReadWriteOptions(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		wr, err := h.cli.WriteAt(ctx, "k", []byte("v"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Level != 1 {
			t.Fatalf("write %d landed on level %d, want 1", i, wr.Level)
		}
	}
	if _, err := h.cli.WriteAt(ctx, "k", []byte("v"), 2); err == nil {
		t.Error("WriteAt(2) on a 2-level protocol must fail")
	}
	if _, err := h.cli.WriteAt(ctx, "k", []byte("v"), -1); err == nil {
		t.Error("WriteAt(-1) must fail")
	}
	if _, err := h.cli.Write(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name string
		opt  Option
	}{
		{"hedging off", WithHedging(false)},
		{"1ms hedge delay", WithHedgeDelay(time.Millisecond)},
	} {
		// A second client over the same replicas, configured per case.
		id := -2 - i
		ep, err := h.net.Register(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		cli := New(id, ep, h.proto, WithTimeout(80*time.Millisecond), WithSeed(1), tc.opt)
		rd, err := cli.Read(ctx, "k")
		if err != nil || string(rd.Value) != "v2" {
			t.Fatalf("%s: read = %q, %v; want \"v2\"", tc.name, rd.Value, err)
		}
		if _, err := cli.Write(ctx, "k", []byte("v2")); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		cli.Close()
	}
}

// TestSiteEWMA sanity-checks the fold: a step change in latency must move
// the estimate toward the new value without jumping to it, and the failure
// estimate must decay when a site recovers.
func TestSiteEWMA(t *testing.T) {
	var e site
	e.score(10*time.Millisecond, false)
	for i := 0; i < 3; i++ {
		e.score(20*time.Millisecond, false)
	}
	if e.lat <= float64(10*time.Millisecond) || e.lat >= float64(20*time.Millisecond) {
		t.Errorf("latency EWMA %v outside (10ms, 20ms)", time.Duration(e.lat))
	}
	for i := 0; i < 4; i++ {
		e.score(10*time.Millisecond, true)
	}
	if failBucket(e.fail) == 0 {
		t.Errorf("failure EWMA %v still in the healthy bucket after 4 failures", e.fail)
	}
	for i := 0; i < 12; i++ {
		e.score(10*time.Millisecond, false)
	}
	if failBucket(e.fail) != 0 {
		t.Errorf("failure EWMA %v did not decay after recovery", e.fail)
	}
}

// TestHedgedVersionDiscovery: writes share the engine through version
// discovery — with a crashed site in a warm level, writes to the healthy
// level must stay fast instead of stalling on discovery.
func TestHedgedVersionDiscovery(t *testing.T) {
	h := newMemHarness(t, "1-2",
		WithTimeout(250*time.Millisecond), WithHedgeDelay(2*time.Millisecond))
	ctx := context.Background()
	if _, err := h.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := h.cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	// "1-2" has one physical level; crashing one member kills the write
	// quorum, so use a second harness shape: two levels, crash in level 0,
	// pin writes to level 1.
	h2 := newMemHarness(t, "1-2-2",
		WithTimeout(250*time.Millisecond), WithHedgeDelay(2*time.Millisecond))
	if _, err := h2.cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := h2.cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	sites := h2.proto.LevelSites(0)
	h2.replicaFor(t, transport.Addr(sites[0])).Crash()
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := h2.cli.WriteAt(ctx, fmt.Sprintf("w%d", i), []byte("v"), 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if d := time.Since(start); d > 120*time.Millisecond {
			t.Fatalf("write %d took %v — version discovery waited out the timeout", i, d)
		}
	}
}
