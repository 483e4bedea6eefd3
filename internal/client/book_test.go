package client

import (
	"sync"
	"testing"
	"time"

	"arbor/internal/transport"
)

// peek returns a copy of the site's record (the zero record for a site the
// book has never heard of).
func (b *siteBook) peek(addr transport.Addr) site {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.sites[addr]; s != nil {
		return *s
	}
	return site{}
}

// TestBookOutcomeTable is the outcome × field table of DESIGN.md §4b: for
// each of the eight outcomes, which of the EWMAs and the refusing mark it
// moves — and which it must leave alone.
func TestBookOutcomeTable(t *testing.T) {
	const addr = transport.Addr(3)
	rows := []struct {
		o        outcome
		name     string
		refusing [2]bool // mark before → after
		scored   int     // failure-EWMA samples added
		timed    int     // latency-EWMA samples added
		failed   bool    // scored as a failure
	}{
		{outcomeServed, "served", [2]bool{true, false}, 1, 1, false},
		{outcomeCatchingUp, "catching-up refusal", [2]bool{false, true}, 1, 1, false},
		{outcomeShed, "shed", [2]bool{false, true}, 0, 0, false},
		{outcomeTimedOut, "timeout", [2]bool{true, true}, 1, 1, true},
		{outcomeSendFailed, "failed send", [2]bool{true, true}, 1, 0, true},
		{outcomeCancelled, "cancelled", [2]bool{true, true}, 0, 0, false},
		{outcomeClosed, "closed", [2]bool{true, true}, 0, 0, false},
		{outcomeOverdue, "overdue primary", [2]bool{true, true}, 1, 1, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			b := newSiteBook(time.Hour)
			b.sites[addr] = &site{lat: 1e6, samples: 1, timed: 1, refusing: r.refusing[0]}
			b.observe(addr, r.o, 9*time.Millisecond)
			s := b.peek(addr)
			if got := int(s.samples) - 1; got != r.scored {
				t.Errorf("failure-EWMA samples added = %d, want %d", got, r.scored)
			}
			if got := int(s.timed) - 1; got != r.timed {
				t.Errorf("latency-EWMA samples added = %d, want %d", got, r.timed)
			}
			if moved := s.lat != 1e6; moved != (r.timed == 1) {
				t.Errorf("latency EWMA %v; want it moved = %v", s.lat, r.timed == 1)
			}
			if (s.fail > 0) != r.failed {
				t.Errorf("failure EWMA %v; want failed = %v", s.fail, r.failed)
			}
			if s.refusing != r.refusing[1] {
				t.Errorf("refusing = %v, want %v", s.refusing, r.refusing[1])
			}
		})
	}
}

// TestBookShedThenServe: the refusing mark a shed sets is cleared by the
// next served reply, and orders the site last in between.
func TestBookShedThenServe(t *testing.T) {
	b := newSiteBook(time.Hour)
	sites := []transport.Addr{1, 2}
	order := make([]int8, 2)
	b.observe(1, outcomeServed, time.Millisecond)
	b.observe(2, outcomeShed, 0)
	if b.snapshot(sites, 0, order); order[0] != 0 || order[1] != refusingBucket {
		t.Fatalf("order buckets after a shed = %v, want [0 %d]", order, refusingBucket)
	}
	b.observe(2, outcomeServed, time.Millisecond)
	if b.snapshot(sites, 0, order); order[1] != 0 || b.peek(2).refusing {
		t.Fatalf("order buckets after the serve = %v, refusing = %v", order, b.peek(2).refusing)
	}
}

// TestBookFailedSendsSortLast: a failed send has no round trip, so it
// raises the site's failure class and leaves its latency EWMA alone; three
// in a row sort the site behind its healthy siblings, and its level behind
// the healthy level for writes.
func TestBookFailedSendsSortLast(t *testing.T) {
	h := newScriptHarness(t, "1-3-5", byArrival(), WithHedgeDelay(time.Hour))
	h.warm()
	lt := h.cli.levels.Load()
	bad := lt.addrs[0][0]
	before := h.cli.book.peek(bad)
	for i := 0; i < 3; i++ {
		h.cli.book.observe(bad, outcomeSendFailed, 0)
	}
	if s := h.cli.book.peek(bad); failBucket(s.fail) != 2 || s.lat != before.lat || s.timed != before.timed {
		t.Fatalf("after three failed sends: fail %v, lat %v (%d timed); want failure class 2, lat %v (%d timed)",
			s.fail, s.lat, s.timed, before.lat, before.timed)
	}
	buckets := make([]int8, len(lt.addrs[0]))
	if h.cli.book.snapshot(lt.addrs[0], float64(h.cli.hedgeDelay), buckets); buckets[0] <= max(buckets[1], buckets[2]) {
		t.Errorf("probe-order buckets of level 0 = %v; want site %d's behind its siblings'", buckets, bad)
	}
	for i := 0; i < 32; i++ {
		if order := h.cli.orderedLevels(lt, nil, -1); order[len(order)-1] != 0 {
			t.Fatalf("level of the send-failing site not last for writes: %v", order)
		}
	}
}

// TestBookPromptServeClearsFailingSite: one served reply faster than the
// hedge delay takes a site out of failure class 2 at once; one slower than
// that (a slow site whose lost hedge races put it there) leaves it failing.
func TestBookPromptServeClearsFailingSite(t *testing.T) {
	const prompt = 30 * time.Millisecond
	b := newSiteBook(prompt)
	for i := 0; i < 4; i++ {
		b.observe(1, outcomeTimedOut, time.Second)
		b.observe(2, outcomeOverdue, prompt)
	}
	b.observe(1, outcomeServed, time.Millisecond)
	b.observe(2, outcomeServed, 4*prompt)
	if c := failBucket(b.peek(1).fail); c != 0 {
		t.Errorf("failure class after a prompt reply = %d, want 0", c)
	}
	if c := failBucket(b.peek(2).fail); c != 2 {
		t.Errorf("failure class after a slow reply = %d, want 2", c)
	}
}

// TestBookConcurrent has eight goroutines observe and snapshot one site at
// once (run under -race).
func TestBookConcurrent(t *testing.T) {
	b := newSiteBook(time.Hour)
	sites := []transport.Addr{1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := make([]int8, 1)
			for i := 0; i < 2000; i++ {
				b.observe(1, outcome((g+i)%8), time.Duration(i)*time.Microsecond)
				b.snapshot(sites, 0, order)
			}
		}(g)
	}
	wg.Wait()
	if s := b.peek(1); s.samples == 0 {
		t.Error("nothing was scored")
	}
}
