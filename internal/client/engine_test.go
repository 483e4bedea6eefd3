package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
	"arbor/internal/wire"
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
		a, _ := h1.cli.orderedSites(nil, h1.cli.levels.Load(), u)
		b, _ := h2.cli.orderedSites(nil, h2.cli.levels.Load(), u)
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
		h.cli.book.observe(healthy, outcomeServed, time.Millisecond)
		h.cli.book.observe(failing, outcomeOverdue, time.Millisecond)
		h.cli.book.observe(slow, outcomeServed, 50*time.Millisecond)
	}
	const draws = 200
	firstHealthy, lastFailing := 0, 0
	for i := 0; i < draws; i++ {
		out, _ := h.cli.orderedSites(nil, h.cli.levels.Load(), 0)
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
		h.cli.book.observe(bad, outcomeOverdue, time.Millisecond)
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
		return c.levelHedgeDelay(c.book.snapshot(addrs, 0, nil))
	}
	if d := hedgeDelay(h.cli); d != 0 {
		t.Error("cold level must not hedge")
	}
	h.cli.book.observe(addrs[0], outcomeServed, time.Millisecond)
	if d := hedgeDelay(h.cli); d != 5*time.Millisecond {
		t.Errorf("warm level: delay = %v; want 5ms", d)
	}
	// With hedging disabled, not even a warm level hedges.
	off := newMemHarness(t, "1-2", hedge5, WithHedging(false))
	off.cli.book.observe(addrs[0], outcomeServed, time.Millisecond)
	if d := hedgeDelay(off.cli); d != 0 {
		t.Errorf("hedging disabled: delay = %v; want 0", d)
	}
	// A best round-trip of 10ms floors the 5ms configured delay to 20ms.
	h2 := newMemHarness(t, "1-2", hedge5)
	for i := 0; i < 20; i++ {
		h2.cli.book.observe(addrs[0], outcomeServed, 10*time.Millisecond)
	}
	if d := hedgeDelay(h2.cli); d != 20*time.Millisecond {
		t.Errorf("floored delay = %v; want 20ms", d)
	}
	// A uniformly slow level (floor >= timeout) must not hedge at all.
	h3 := newMemHarness(t, "1-2", hedge5)
	for i := 0; i < 20; i++ {
		h3.cli.book.observe(addrs[0], outcomeServed, 60*time.Millisecond)
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
		h.cli.book.observe(transport.Addr(sites[0]), outcomeServed, 5*time.Microsecond)
		h.cli.book.observe(transport.Addr(sites[1]), outcomeServed, 5*time.Microsecond)
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

// TestExploredFailingSiteHedgedAtFloor: when exploration puts in front of
// its level a site the book sorts behind the front — one in failure class 2,
// or a 100ms member in latency class 2 — its hedge is due at the level's
// floor (twice the best round trip), not after the hedge delay. While the
// site stays silent or slow no read waits the hedge delay, and losing that
// early race leaves the site's record alone; once the failing site answers
// again, explorations bring it out of class 2.
func TestExploredFailingSiteHedgedAtFloor(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  reaction      // how the demoted site answers while it is bad
		seen outcome       // what the book saw of it, four times
		rtt  time.Duration // at this round trip
	}{
		{"failing", silent, outcomeTimedOut, 400 * time.Millisecond},
		{"100ms member", answerSlow, outcomeServed, slowAfter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bad atomic.Bool
			h := newScriptHarness(t, "1-2", nil, WithHedgeDelay(60*time.Millisecond))
			sites := h.proto.LevelSites(0)
			demoted := transport.Addr(sites[0])
			h.conn.script(func(_ int, m transport.Message) reaction {
				if bad.Load() && m.To == demoted {
					return tc.bad
				}
				return answer
			})
			for _, s := range sites {
				for i := 0; i < 8; i++ {
					h.cli.book.observe(transport.Addr(s), outcomeServed, 2*time.Millisecond)
				}
			}
			for i := 0; i < 4; i++ {
				h.cli.book.observe(demoted, tc.seen, tc.rtt)
			}
			bad.Store(true)
			before := h.cli.book.peek(demoted)
			ctx := context.Background()
			read := func(i int) {
				start := time.Now()
				if _, err := h.cli.Read(ctx, "k"); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if d := time.Since(start); d > 45*time.Millisecond {
					t.Fatalf("read %d took %v: it waited the hedge delay for an explored %s site", i, d, tc.name)
				}
			}
			for i := 0; i < 200; i++ {
				read(i)
			}
			if h.cli.instr.hedges.Value() == 0 {
				t.Fatalf("no exploration put the %s site in front", tc.name)
			}
			if got := h.cli.book.peek(demoted); got != before {
				t.Errorf("%s explored site's record moved: %+v, was %+v", tc.name, got, before)
			}
			if tc.bad != silent {
				return
			}
			bad.Store(false)
			for i := 0; failBucket(h.cli.book.peek(demoted).fail) == 2; i++ {
				if i == 1000 {
					t.Fatalf("recovered site still in failure class 2 after %d reads: %+v", i, h.cli.book.peek(demoted))
				}
				read(i)
			}
		})
	}
}

// TestConcurrentReadsEachRunQuorum: concurrent reads of one key through one
// client each assemble a quorum of their own — every caller gets the value,
// counts as a read and pays one contact per physical level.
func TestConcurrentReadsEachRunQuorum(t *testing.T) {
	h := newEngineHarness(t, "1-2-2",
		transport.NetConfig{Latency: 2 * time.Millisecond},
		WithTimeout(250*time.Millisecond), WithHedging(false))
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
	// 1-2-2 has two physical levels: every read contacts each once.
	if delta := after.ReadContacts - before.ReadContacts; delta != 2*callers {
		t.Errorf("ReadContacts delta = %d, want %d (one quorum per read)", delta, 2*callers)
	}
}

// TestReadBesideHeldReadRunsOwnQuorum: while one read of a key waits on a
// held reply, a write to the key is acknowledged and a second read of it
// begins. The second read must send its own level request and return the
// newer timestamp its own reply carries, not the held read's result: only
// a quorum assembled after the write is sure to meet the write's level.
func TestReadBesideHeldReadRunsOwnQuorum(t *testing.T) {
	// Neither a timeout nor a hedge may move the held read to the level's
	// other site: its request would pass for the second read's own.
	h := newScriptHarness(t, "1-2", byArrivalAlways(silent), WithTimeout(10*time.Second), WithHedgeDelay(time.Hour))
	ctx := context.Background()
	type result struct {
		res ReadResult
		err error
	}
	first, second := make(chan result, 1), make(chan result, 1)
	go func() {
		res, err := h.cli.Read(ctx, "k")
		first <- result{res, err}
	}()
	<-h.conn.seen // the first read's one request is out; its reply is held
	held := h.conn.requests()[0]
	heldReply := h.conn.replyFrom(held.To, held.Payload, false)

	// Another client's write commits at every site of the level.
	older, newer := wire.Timestamp{Version: 1, Site: -1}, wire.Timestamp{Version: 2, Site: -2}
	for _, s := range h.proto.LevelSites(0) {
		h.conn.replyFrom(transport.Addr(s), wire.CommitReq{Key: "k", TS: newer}, false)
	}
	h.conn.script(byArrivalAlways(answer))
	go func() {
		res, err := h.cli.Read(ctx, "k")
		second <- result{res, err}
	}()
	select {
	case <-h.conn.seen:
	case <-time.After(time.Second):
		t.Error("the second read sent no request of its own")
	}
	h.conn.in <- transport.Message{From: held.To, To: -1, Payload: heldReply}

	f, s := <-first, <-second
	if f.err != nil || f.res.TS != older || f.res.Contacts != 1 {
		t.Errorf("first read: %q@%v, %d contacts, %v; want its held reply's %v from 1 contact", f.res.Value, f.res.TS, f.res.Contacts, f.err, older)
	}
	if s.err != nil || s.res.TS != newer || s.res.Contacts != 1 {
		t.Errorf("second read: %q@%v, %d contacts, %v; want its own reply's %v from 1 contact", s.res.Value, s.res.TS, s.res.Contacts, s.err, newer)
	}
	if n := len(h.conn.requests()); n != 2 {
		t.Errorf("requests sent = %d, want 2 (one per read)", n)
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

// TestRefusingSiteSinksInOrdering: a catching-up refusal pushes the site to
// the back of its level's candidate order without polluting the latency and
// failure estimates, and a later successful serve restores it.
func TestRefusingSiteSinksInOrdering(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	addr := transport.Addr(2)

	h.cli.book.observe(addr, outcomeShed, 0)
	var u = -1
	for lvl := 0; lvl < h.proto.NumPhysicalLevels(); lvl++ {
		for _, s := range h.proto.LevelSites(lvl) {
			if transport.Addr(s) == addr {
				u = lvl
			}
		}
	}
	for i := 0; i < 10; i++ {
		order, _ := h.cli.orderedSites(nil, h.cli.levels.Load(), u)
		if order[len(order)-1] != addr {
			t.Fatalf("refusing site %d not last in %v", addr, order)
		}
	}
	// A successful record clears the refusal mark.
	h.cli.book.observe(addr, outcomeServed, time.Millisecond)
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
	h.replicas[1].Recover(replica.SyncPlan{
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
	a := h.cli.fanout(ctx, []transport.Addr{2}, nil, "read", replica.ReadReq{Key: "k"})
	defer a.release()
	if err := a.slots[0].err; !errors.Is(err, ErrCatchingUp) {
		t.Errorf("direct probe err = %v, want ErrCatchingUp", err)
	}
}

// TestRefusingMemberSortsItsLevelLast: a member that sheds every prepare
// blocks its level's write quorum, so once the book has seen it shed,
// writes stop starting on that level.
func TestRefusingMemberSortsItsLevelLast(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithHedging(false))
	ctx := context.Background()
	shedder, sibling := h.replicas[0], h.replicas[1] // sites 1 and 2: level 0
	shedder.Saturate(true)
	for i := 0; shedder.Stats().Sheds == 0; i++ {
		if i == 50 {
			t.Fatal("50 writes and the saturated member was never asked")
		}
		if _, err := h.cli.Write(ctx, fmt.Sprint("warm-", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := sibling.Stats().Prepares
	const writes = 20
	for i := 0; i < writes; i++ {
		if _, err := h.cli.Write(ctx, fmt.Sprint("k-", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if started := sibling.Stats().Prepares - before; started != 0 {
		t.Errorf("%d of %d writes started on the level of a member that refuses prepares, want 0", started, writes)
	}
}
