package client

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

// The pinned history's clock: a timeout costs pinTimeout, and a silent
// primary loses its level to a hedge after pinHedge. Nothing else in the
// history reads a clock, so the destination sequence does not depend on how
// fast the machine is.
const (
	pinTimeout = 100 * time.Millisecond
	pinHedge   = 20 * time.Millisecond
)

// pinRun drives one scripted history and writes down where every request
// went: one letter per request ('a' is site 1), one word per operation ("-"
// for an operation that sent nothing), one string per phase.
type pinRun struct {
	t      *testing.T
	h      *scriptHarness
	mode   map[transport.Addr]reaction
	n      int // operations so far
	mark   int // requests already written down
	cur    strings.Builder
	phases []string
}

// did writes down what the operation just finished sent.
func (p *pinRun) did() {
	reqs := p.h.conn.requests()
	if len(reqs) == p.mark {
		p.cur.WriteByte('-')
	}
	for _, m := range reqs[p.mark:] {
		p.cur.WriteByte(byte('a' + m.To - 1))
	}
	p.cur.WriteByte(' ')
	p.mark = len(reqs)
	p.n++
}

// ops runs count operations on four keys, every fifth a write. Operations
// may fail — the script makes some — and only where they sent requests is
// recorded.
func (p *pinRun) ops(count int) { p.run(count, true) }

// reads runs count reads on the keys ops would use.
func (p *pinRun) reads(count int) { p.run(count, false) }

func (p *pinRun) run(count int, writes bool) {
	ctx := context.Background()
	for i := 0; i < count; i++ {
		key := string(rune('w' + p.n%4))
		if p.n%5 == 4 && writes {
			_, _ = p.h.cli.Write(ctx, key, []byte("v"))
		} else {
			_, _ = p.h.cli.Read(ctx, key)
		}
		p.did()
	}
}

// pings sends count pings to site.
func (p *pinRun) pings(site transport.Addr, count int) {
	for i := 0; i < count; i++ {
		_ = ping(p.h.cli, site)
		p.did()
	}
}

// end closes the current phase.
func (p *pinRun) end() {
	p.phases = append(p.phases, strings.TrimSpace(p.cur.String()))
	p.cur.Reset()
}

// pinnedHistory runs the history on spec: ≥300 seeded operations while the
// script makes chosen sites lose hedge races, refuse, shed, fail sends, time
// out and recover, so that failure buckets move and refusing marks are set
// and cleared.
func pinnedHistory(t *testing.T, spec string, seed int64) []string {
	p := &pinRun{t: t, mode: map[transport.Addr]reaction{}}
	// A client-level hedge delay above the timeout turns hedging off and
	// keeps every latency EWMA in the healthy bucket (a latency below the
	// hedge delay is never material), so measured round-trip times cannot
	// move the order; failure EWMAs and marks do.
	p.h = newScriptHarness(t, spec, func(_ int, m transport.Message) reaction { return p.mode[m.To] },
		WithTimeout(pinTimeout), WithHedgeDelay(time.Hour), WithSeed(seed))
	level := func(u int) []transport.Addr {
		var out []transport.Addr
		for _, s := range p.h.proto.LevelSites(u) {
			out = append(out, transport.Addr(s))
		}
		return out
	}
	first, second, last := level(0), level(1), level(p.h.proto.NumPhysicalLevels()-1)
	hedged, shedder := last[0], last[1]
	sendFailer, refuser := first[0], first[1]
	silenced, siblings := second[len(second)-1], second[:len(second)-1]

	p.ops(40)
	p.end() // warm

	// A silent primary loses hedge races: scored failed. Only this phase
	// hedges, with reads alone.
	p.mode[hedged] = silent
	p.h.cli.hedgeDelay = pinHedge
	p.reads(15)
	p.h.cli.hedgeDelay = time.Hour
	p.end()
	p.mode[hedged] = answer
	p.ops(25)
	p.end()

	// Catching-up refusals of reads and version probes; prepares are served.
	p.mode[refuser] = refuse
	p.ops(30)
	p.end()
	p.mode[refuser] = answer
	p.ops(20)
	p.end()

	p.mode[shedder] = shed
	p.ops(30)
	p.end()
	p.mode[shedder] = answer
	p.ops(20)
	p.end()

	// Failed sends raise the failure EWMA without a round trip: the site
	// sorts last in its level, and its level last for writes.
	p.mode[sendFailer] = failSend
	p.pings(sendFailer, 4)
	p.ops(25)
	p.end()
	// The recovered site keeps its failure class until it is contacted
	// again, which only exploration does: until then it stays last in its
	// level, and its level last for writes. Its first reply clears the
	// class, and its level is back in the write rotation.
	p.mode[sendFailer] = answer
	p.ops(30)
	p.end()

	// Timeouts move both EWMAs: the silent site sorts last, and every
	// contact with it waits out the timeout.
	p.mode[silenced] = silent
	p.pings(silenced, 5)
	p.ops(20)
	p.end()
	// The site is back and its siblings refuse: a read falls through to it,
	// and its replies bring its failure EWMA down.
	p.mode[silenced] = answer
	for _, s := range siblings {
		p.mode[s] = refuse
	}
	p.ops(5)
	p.end()
	for _, s := range siblings {
		p.mode[s] = answer
	}
	p.ops(40)
	p.end()
	if p.n < 300 {
		t.Fatalf("history has %d operations, want at least 300", p.n)
	}
	return p.phases
}

// TestSiteSequencePinned holds the engine's site selection — ordering and
// exploration — to the destination sequence pinned for the same seeded
// histories.
func TestSiteSequencePinned(t *testing.T) {
	for _, tc := range []struct {
		spec string
		seed int64
		want []string
	}{
		{"1-3-5", 7, pinned135},
		{deepSpec, 11, pinnedDeep},
	} {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			got := pinnedHistory(t, tc.spec, tc.seed)
			if len(got) != len(tc.want) {
				t.Fatalf("history has %d phases, pinned %d:\n%#v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("phase %d:\n got %q\nwant %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

var pinned135 = []string{
	"be ch af ad afabcabc af ch ae ah cgdefghdefgh ad ae cd cg bfabcabc ae bd cd bf bhdefghdefgh bd cf ad af cdabcabc ch ag ah bf bhabcabc af ad af ah cfabcabc bf ae ad ad bgdefghdefgh",
	"bdg af cg ch ae bg ae cg ae bh bg af be ah ae",
	"be ag cf cf chabcabc bh ag bg be beabcabc ad ad bh ch bdabcabc ah ae bf bd cgdefghdefgh bf be af ch ceabcabc",
	"bga ae cf cg aedefghdefgh cf af cd ch adabcabc cg bda cd ah cgdefghdefgh cf ah af cf cdabcabc ag bea ce cg ceabcabc bfc cf ah ad cfabcabc",
	"ad cg af ce cgdefghdefgh bh bd ch ag addefghdefgh bg be cg bf bgdefghdefgh cg cg af bh ceabcabc",
	"cf ch bh ag cfabcabc ch bd bg ch afabcabc bh aed ch cd agabcabc cg bd bd bg adabcabc cf ch bd cd bgabcabc ad bf ad ad cdabcabc",
	"ce cf ae ce ahabcabc bf ae ad ae chabcabc bf bd ce be bfdefghdefgh ah ad cd ag bhdefghdefgh",
	"a a a a cedefghdefgh ch be ch bh cddefghdefgh be cg bd ch bhdefghdefgh cd ce bg bf cgdefghdefgh bh bd cg cg bedefghdefgh bh cg cf bh",
	"bgdefghdefgh bh be bh cg cfdefghdefgh bh bg ch cf bfdefghdefgh bd bf bg cf chdefghdefgh bf bg ce cf bgdefghdefgh cg bf cg ce bfdefghdefgh cf cd bh be",
	"h h h h h beabcabc ae cf bg ag aeabcabc cd ad af ad aeabcabc ad ae be cf bfabcabc ae ae cd cf",
	"cfegdhabcabc ah ah ah ah",
	"ahabcabc ah ah bh ch bhabcabc bh ch ch ch chdefghdefgh bg cg ad ad aeabcabc bh ad bd bg cgdefghdefgh bh ad af bh cddefghdefgh bg bf ad af addefghdefgh be bg cg af aeabcabc bf ad cd ch",
}

var pinnedDeep = []string{
	"bcegjlmp adegjlmo bcehjlmp acegikmp bdfgilmpcdcd adfgilnp acfhjkno bdfhjkmp bdfgilno acfgjlmoklkl adfhjkmp adfhilno adfhjkno bcfhilno acegikmomnmn adehjlnp bdfhjkmp bdfhjkmp bdfgikno bcegjlnoklkl acegjknp acfgikno bdegilmo bcehilmo bcfhjkmpijij adfhilno acegilmo bdegjknp acfhjknp bcegjlmomnmn bdfgilmp acfgjkmo adfhiknp bcfgjlmo adfgilmpefef adfhjlmo acfhilmo adehilmp bcegilmp adehilmoabab",
	"adehilnop bcegjlnp bdehjkmp acfhjlnp acfhikmp acfgikmp acegjlmp acehjknp bdfhilmp acfgilmp acfgiknp adehilmp adfhjlnp adfhjlnp adegiknp",
	"bdegjkmp acehiknp adehjlmp acfhilnp acehilmpmnmn adegilnp acegilnp acehilmp acehilmp acfgjlnpcdcd bdfgjknp bcfhilmp acfhjlmp bdegjlmp adehjkmpklkl acfhikmp bcfgjknp acegjkmp acfhjlnp bcfhilmpabab acehikmp bdfhjknp bcehikno bcfgiknp acfhjlnoabab",
	"bdegjknoa acehikno adegikmo adehilmp adfhjlmpabab bcegjkmoa adegjkno adfgjlmo acegjlmp acfgjlnoijij adehjkmo acfgiknp acfgjlmo acehjlmp adfgjkmoopop adehjkmo acfgjlmo adfhilno acfhiknp acfhjkmocdcd acfhikmo acegiknp acegilmp adegilno acehiknoklkl adfhikno acehjlno adfgilno acfhjlmo adfgjkmomnmn",
	"acfgiknp acehilmp adehjkmo acfhjlmo acfhikmpghgh acfhilno acehjlno adehikmo adegikno adfhikmoijij adegjlno adehjknp adegjknp adfgilmo acfhjlnocdcd acegjkmp adfhjkmo acehikmo adfhjknp adfhikmpghgh",
	"adehikmo adfhjknpo acfhjkno adehikmo acegjknoabab adegjkno adfhilmo bdfhjlmo bdfhikmo bcfgjkmomnmn bdegikno adegilno bcehjkno acehikno bdfhjlnoijij acfhjkno bcfhilmo bcfhjlno acehikno acfhjlnoklkl bcegikmo bdfhjlno bdehjkmo acfhjkmo adehjlnoijij acfhjlmo acfgjkno bdegjkmo bdegjkno bcfhjknoghgh",
	"acfgikmo bdfhikmo adegilmo bcehjkno adegiknocdcd adfgjlmo adehikno bdfhilno bcfhjlno bcegjlnomnmn adehikno bdfhjkmo acehilno bcehjlmo adegjlmoghgh adegjlno bcehilmo bdfgjkmo bdfhjlno bcehjknocdcd",
	"a a a a bdfgjknoghgh bdfhilmo abdehjkno bcfgjlmo bcfgilmo bdfgjknoefef bdfhikmo bcehilno bcfgikno bcegjlmo bcegjknocdcd bdfhjlmo bdfgikno bcehjlno bdehjkmo bcfhjlmocdcd bcfgilno bcegjkno bcehjlmo bcegikmo bcfhjkmoklkl bcfgilmo bcehjlno bdfgikmo bcehjlmp",
	"bdfhiknpcdcd bcehjlno bdegjlno bdehjkno bdegilmp bcfhjknpcdcd bcfgjlmo bcegjlno adfhilno bcegikmp acfgilmpghgh acfhjknp acegilmo bcfgilnp bcehjlno bcfgjlnoabab adfhikmp acehiknp acfgjlmp bcegjkmo acfhilmoabab bcehjkmp acfhilmo bcegjlmp bcfhjlmo bcfgilmpefef bdfhjknp bcehjkmo bdegjlnp adehilno",
	"d d d d d acfhjlnoghgh acfhjlno bcfgiknp acehjlno acfhilnp bcegjkmoopop acfhiknp bcfhilmo acfgilnp acehilno acehikmpabab bcegjlno acfgikmo acehjkno acfgilno bcfgjlmpmnmn acfhjknp bcegjknp bcfgiknp bcfhilno",
	"acegikmodghgh bcfhjlmod adegikmp adegjkno bdehiknp",
	"adfgilmomnmn adehiknp adfgjknp adehjlmo adehikno adfgikmpmnmn bdegjkmp bdehjlno bdehjlno adehjlno bcehiknomnmn adfhjlmo adegjknp bdfgikmo adehjkno bdehjlnpghgh adehilmp adehjkmp adfhikno bcegikmp acfhjknoijij adegjlmo acehjkno acehjlnp bdehilmp bcegjlmoabab adegilno bdehilmp bdehjlmo adehilno adfhikmoopop bdegilnp acfgikmp bcfgilno adfhjlno adegjkmpklkl acfgikmp adegikmo acehjkno adfhikmo",
}

// healedWriteDelay runs the send-failure history of pinnedHistory on 1-3-5
// under seed — 40 operations, 4 failed pings and 25 operations while the
// first level's first site refuses every send, then the link back — and
// returns how many operations after the link returned it took until a
// write's prepare reached that site (limit when none did). As in
// pinnedHistory, a hedge delay above the timeout keeps hedging off, so no
// clock reading can move the sequence.
func healedWriteDelay(t *testing.T, seed int64, limit int) int {
	p := &pinRun{t: t, mode: map[transport.Addr]reaction{}}
	p.h = newScriptHarness(t, "1-3-5", func(_ int, m transport.Message) reaction { return p.mode[m.To] },
		WithTimeout(pinTimeout), WithHedgeDelay(time.Hour), WithSeed(seed))
	healed := transport.Addr(p.h.proto.LevelSites(0)[0])
	p.ops(40)
	p.mode[healed] = failSend
	p.pings(healed, 4)
	p.ops(25)
	p.mode[healed] = answer
	for n := 1; n <= limit; n++ {
		from := p.mark
		p.ops(1)
		for _, m := range p.h.conn.requests()[from:] {
			if _, ok := m.Payload.(wire.PrepareReq); ok && m.To == healed {
				return n
			}
		}
	}
	return limit
}

// TestHealedSiteLevelReturnsToWrites: once a site whose sends failed is
// reachable again, its level is back in the write rotation as soon as the
// site has served one contact — exploration's, since the site sorts last —
// rather than after the several replies a quarter-per-reply failure EWMA
// needs to leave failure class 2. Over 30 seeded histories the median
// number of operations until a write reaches the site stays below 100 (it
// was 206 when a served reply only lowered the EWMA by a quarter).
func TestHealedSiteLevelReturnsToWrites(t *testing.T) {
	const seeds, limit = 30, 2000
	delays := make([]int, 0, seeds)
	for seed := int64(1); seed <= seeds; seed++ {
		delays = append(delays, healedWriteDelay(t, seed, limit))
	}
	sort.Ints(delays)
	t.Logf("operations until the healed site's level is written: quartiles %d, %d, %d; max %d",
		delays[seeds/4], delays[seeds/2], delays[3*seeds/4], delays[seeds-1])
	if med := delays[seeds/2]; med >= 100 {
		t.Errorf("median %d operations until a write reaches the healed site's level, want < 100 (all: %v)", med, delays)
	}
}
