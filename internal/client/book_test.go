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

// The stepped clock of the book tests: the book's entry points take now as
// an argument, so nothing here sleeps.
var bookEpoch = time.Unix(1_000_000, 0)

const bookTimeout = 50 * time.Millisecond // cooldown 100ms, jittered over [50ms, 150ms)

// TestBookBreakerLifecycle walks one site's breaker through its whole state
// machine, one step of the table at a time: closed → open at the fourth
// consecutive failure → skipped until the cooldown → one half-open probe →
// closed by a reply, or re-opened with a doubled, capped, jittered cooldown.
func TestBookBreakerLifecycle(t *testing.T) {
	const site = transport.Addr(1)
	base := 2 * bookTimeout
	type step struct {
		name    string
		at      time.Duration // on the stepped clock
		observe outcome       // applied first, unless -1
		admit   bool          // then ask admit…
		force   bool          // …forced or not
		want    bool          // admit's answer
		state   BreakerState  // afterwards
	}
	const none = outcome(-1)
	steps := []step{
		{name: "unknown site is admitted", at: 0, observe: none, admit: true, want: true, state: BreakerClosed},
		{name: "two failures keep it closed", at: 1, observe: outcomeTimedOut, state: BreakerClosed},
		{at: 2, observe: outcomeSendFailed, state: BreakerClosed},
		{name: "any reply ends the run — a shed included", at: 3, observe: outcomeShed, state: BreakerClosed},
		{at: 4, observe: outcomeTimedOut, state: BreakerClosed},
		{at: 5, observe: outcomeTimedOut, state: BreakerClosed},
		{at: 6, observe: outcomeSendFailed, admit: true, want: true, state: BreakerClosed},
		{name: "the fourth consecutive failure opens it", at: 7, observe: outcomeTimedOut, admit: true, want: false, state: BreakerOpen},
		{name: "skipped until the shortest cooldown has passed", at: 7 + base/2 - 1, observe: none, admit: true, want: false, state: BreakerOpen},
		{name: "force goes through, and takes no probe slot", at: 7 + base/2 - 1, observe: none, admit: true, force: true, want: true, state: BreakerOpen},
		{name: "half-open once the longest cooldown has passed", at: 7 + 3*base/2, observe: none, state: BreakerHalfOpen},
		{name: "exactly one probe", at: 7 + 3*base/2, observe: none, admit: true, want: true, state: BreakerOpen},
		{at: 7 + 3*base/2, observe: none, admit: true, want: false, state: BreakerOpen},
		{name: "a cancelled probe hands the slot back", at: 8 + 3*base/2, observe: outcomeCancelled, admit: true, want: true, state: BreakerOpen},
		{name: "so does a closed client", at: 9 + 3*base/2, observe: outcomeClosed, admit: true, want: true, state: BreakerOpen},
		{name: "a failed probe re-opens it", at: 10 + 3*base/2, observe: outcomeTimedOut, admit: true, want: false, state: BreakerOpen},
		{name: "for a doubled cooldown", at: 10 + 3*base/2 + base - 1, observe: none, admit: true, want: false, state: BreakerOpen},
		{at: 10 + 3*base/2 + 3*base, observe: none, admit: true, want: true, state: BreakerOpen},
		{name: "a reply to the probe closes it — a refusal included", at: 11 + 3*base/2 + 3*base, observe: outcomeCatchingUp, admit: true, want: true, state: BreakerClosed},
	}
	b := newSiteBook(true, bookTimeout, 7, nil)
	for i, st := range steps {
		now := bookEpoch.Add(st.at)
		if st.observe != none {
			b.observe(now, site, st.observe, time.Millisecond)
		}
		if st.admit {
			if got := b.admit(now, site, st.force); got != st.want {
				t.Fatalf("step %d (%s): admit(force=%v) = %v, want %v", i, st.name, st.force, got, st.want)
			}
		}
		if got := b.states(now)[site]; got != st.state {
			t.Fatalf("step %d (%s): state = %v, want %v", i, st.name, got, st.state)
		}
	}

	// Failures while open keep doubling the cooldown up to 16× the first,
	// and every interval is jittered over [½d, 1½d).
	b = newSiteBook(true, bookTimeout, 7, nil)
	now := bookEpoch
	for i := 0; i < breakerThreshold; i++ {
		b.observe(now, site, outcomeSendFailed, 0)
	}
	for i, want := range []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 16 * base, 16 * base} {
		s := b.peek(site)
		if s.cooldown != want {
			t.Fatalf("cooldown after %d failures while open = %v, want %v", i, s.cooldown, want)
		}
		if d := s.until.Sub(now); d < want/2 || d >= want*3/2 {
			t.Fatalf("open interval %v outside [%v, %v)", d, want/2, want*3/2)
		}
		now = now.Add(time.Second)
		// A forced contact's failure feeds the record like any other.
		if !b.admit(now, site, true) {
			t.Fatal("forced contact not admitted")
		}
		b.observe(now, site, outcomeTimedOut, bookTimeout)
	}
}

// TestBookOutcomeTable is the outcome × field table of DESIGN.md §4b: for
// each of the eight outcomes, which of the EWMAs, the refusing mark and the
// breaker it moves — and which it must leave alone — from a closed breaker
// two failures into a run, and from an open one with its probe in flight.
func TestBookOutcomeTable(t *testing.T) {
	const addr = transport.Addr(3)
	base := 2 * bookTimeout
	rows := []struct {
		o        outcome
		name     string
		refusing [2]bool // mark before → after
		scored   int     // EWMA samples added
		failed   bool    // …as a failure
		run      int     // failure run after, starting from 2
		// From an open breaker with the probe in flight: does it close, and
		// what is its cooldown afterwards. The probe slot is always returned.
		closes   bool
		cooldown time.Duration
	}{
		{outcomeServed, "served", [2]bool{true, false}, 1, false, 0, true, 0},
		{outcomeCatchingUp, "catching-up refusal", [2]bool{false, true}, 1, false, 0, true, 0},
		{outcomeShed, "shed", [2]bool{false, true}, 0, false, 0, true, 0},
		{outcomeTimedOut, "timeout", [2]bool{true, true}, 1, true, 3, false, 2 * base},
		{outcomeSendFailed, "failed send", [2]bool{true, true}, 0, false, 3, false, 2 * base},
		{outcomeCancelled, "cancelled", [2]bool{true, true}, 0, false, 2, false, base},
		{outcomeClosed, "closed", [2]bool{true, true}, 0, false, 2, false, base},
		{outcomeOverdue, "overdue primary", [2]bool{true, true}, 1, true, 2, false, base},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			b := newSiteBook(true, bookTimeout, 1, nil)
			b.sites[addr] = &site{lat: 1e6, samples: 1, refusing: r.refusing[0], run: 2}
			b.observe(bookEpoch, addr, r.o, 9*time.Millisecond)
			s := b.peek(addr)
			if got := int(s.samples) - 1; got != r.scored {
				t.Errorf("EWMA samples added = %d, want %d", got, r.scored)
			}
			if r.scored == 0 && (s.lat != 1e6 || s.fail != 0) {
				t.Errorf("EWMAs moved to lat %v, fail %v", s.lat, s.fail)
			}
			if r.scored == 1 && (s.lat <= 1e6 || (s.fail > 0) != r.failed) {
				t.Errorf("EWMAs lat %v, fail %v; want latency up and failed = %v", s.lat, s.fail, r.failed)
			}
			if s.refusing != r.refusing[1] {
				t.Errorf("refusing = %v, want %v", s.refusing, r.refusing[1])
			}
			if s.run != r.run || s.open {
				t.Errorf("run = %d, open = %v; want %d and closed", s.run, s.open, r.run)
			}

			b.sites[addr] = &site{open: true, probing: true, cooldown: base, until: bookEpoch}
			b.observe(bookEpoch.Add(time.Second), addr, r.o, 9*time.Millisecond)
			s = b.peek(addr)
			if s.open == r.closes || s.cooldown != r.cooldown || s.probing {
				t.Errorf("from open+probing: open = %v, cooldown = %v, probing = %v; want open = %v, cooldown %v, slot returned",
					s.open, s.cooldown, s.probing, !r.closes, r.cooldown)
			}
			if moved := !s.until.Equal(bookEpoch); moved != (r.cooldown == 2*base) {
				t.Errorf("open interval moved = %v", moved)
			}
		})
	}
}

// TestBookShedThenServe: the refusing mark a shed sets is cleared by the
// next served reply, and orders the site last in between.
func TestBookShedThenServe(t *testing.T) {
	b := newSiteBook(true, bookTimeout, 1, nil)
	sites := []transport.Addr{1, 2}
	order := make([]int8, 2)
	b.observe(bookEpoch, 1, outcomeServed, time.Millisecond)
	b.observe(bookEpoch, 2, outcomeShed, 0)
	if b.snapshot(bookEpoch, sites, 0, order); order[0] != 0 || order[1] != skipBucket {
		t.Fatalf("order buckets after a shed = %v, want [0 %d]", order, skipBucket)
	}
	b.observe(bookEpoch, 2, outcomeServed, time.Millisecond)
	if b.snapshot(bookEpoch, sites, 0, order); order[1] != 0 || b.peek(2).refusing {
		t.Fatalf("order buckets after the serve = %v, refusing = %v", order, b.peek(2).refusing)
	}
}

// TestBookFailedSendsOpenBreakerOnly: failed sends open the breaker — the
// site sorts behind everything and its level is failure class 2 for writes —
// while its EWMAs stay cold.
func TestBookFailedSendsOpenBreakerOnly(t *testing.T) {
	b := newSiteBook(true, bookTimeout, 1, nil)
	for i := 0; i < breakerThreshold; i++ {
		b.observe(bookEpoch, 1, outcomeSendFailed, 0)
	}
	order := make([]int8, 2)
	lv := b.snapshot(bookEpoch, []transport.Addr{1, 2}, 0, order)
	if s := b.peek(1); !s.open || s.samples != 0 {
		t.Fatalf("after %d failed sends: open = %v, samples = %d", breakerThreshold, s.open, s.samples)
	}
	if order[0] != skipBucket || order[1] != 0 || lv.fail != 2 || lv.known {
		t.Errorf("snapshot = %v, %+v; want the open site skipped, the level failure class 2 and cold", order, lv)
	}
}

// TestBookBreakerDisabled: with the breaker off every contact is admitted
// whatever the site's history, and there are no states to report.
func TestBookBreakerDisabled(t *testing.T) {
	b := newSiteBook(false, bookTimeout, 1, nil)
	for i := 0; i < 3*breakerThreshold; i++ {
		b.observe(bookEpoch, 1, outcomeTimedOut, bookTimeout)
	}
	if !b.admit(bookEpoch, 1, false) {
		t.Error("disabled breaker skipped a site")
	}
	if st := b.states(bookEpoch); st != nil {
		t.Errorf("states = %v, want nil", st)
	}
	if s := b.peek(1); s.open || s.samples == 0 {
		t.Errorf("record = %+v; want the EWMAs fed and the breaker never open", s)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}

// TestBookConcurrent has eight goroutines observe, admit and snapshot one
// site at once (run under -race).
func TestBookConcurrent(t *testing.T) {
	b := newSiteBook(true, bookTimeout, 1, nil)
	sites := []transport.Addr{1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := make([]int8, 1)
			for i := 0; i < 2000; i++ {
				now := bookEpoch.Add(time.Duration(i) * time.Millisecond)
				if b.admit(now, 1, i%7 == 0) {
					b.observe(now, 1, outcome((g+i)%8), time.Duration(i)*time.Microsecond)
				}
				b.snapshot(now, sites, 0, order)
				b.states(now)
			}
		}(g)
	}
	wg.Wait()
	if s := b.peek(1); s.samples == 0 {
		t.Error("nothing was scored")
	}
}
