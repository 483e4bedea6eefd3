package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 100}, {0.90, 90}, {0.91, 100}, {0.10, 10}, {0.01, 10}, {1, 100},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must give NaN, not a number that looks measured")
	}
}

func TestMedianOfSegments(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v", got)
	}
	if got := median([]float64{math.NaN(), 9, 1}); got != 5 {
		t.Errorf("a segment with no sample of a kind is left out: got %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}

	// One slow cluster out of five moves the mean of the 15 segments by 6%
	// and the median not at all — the reason runs are built from trials.
	var segs []segmentValues
	for trial := 0; trial < 5; trial++ {
		for seg := 0; seg < 3; seg++ {
			v := 1000.0 + float64(seg)
			if trial == 1 {
				v = 700
			}
			segs = append(segs, segmentValues{opsPerS: v})
		}
	}
	if got := medianOf(segs, func(v segmentValues) float64 { return v.opsPerS }); got != 1001 {
		t.Errorf("median over segments = %v, want 1001", got)
	}
}

func TestSegmentValues(t *testing.T) {
	s := segmentResult{
		ops:      8,
		wall:     2 * time.Second,
		readLat:  []float64{1, 2, 3, 4},
		writeLat: []float64{10, 20, 30, 40},
		counts:   counts{readContacts: 8, writeContacts: 24, mallocs: 400},
	}
	v := s.values()
	if v.opsPerS != 4 || v.readP50 != 2 || v.readP95 != 4 || v.writeP50 != 20 || v.writeP95 != 40 {
		t.Errorf("timings: %+v", v)
	}
	if v.contactsRead != 2 || v.contactsWr != 6 || v.allocsPerOp != 50 {
		t.Errorf("counts: %+v", v)
	}
}

// On a machine running 1.25 times slower than the reference, times shrink
// by that factor and rates grow by it; counts are left alone.
func TestAtReferenceSpeed(t *testing.T) {
	v := segmentValues{opsPerS: 8000, readP50: 50, readP95: 100, writeP50: 250, writeP95: 500, contactsRead: 2, contactsWr: 6, allocsPerOp: 65}
	got := v.atReferenceSpeed(1.25)
	want := segmentValues{opsPerS: 10000, readP50: 40, readP95: 80, writeP50: 200, writeP95: 400, contactsRead: 2, contactsWr: 6, allocsPerOp: 65}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if v.atReferenceSpeed(1) != v {
		t.Error("at the reference speed nothing changes")
	}
}

// The probe must finish, take a plausible time and leave nothing behind
// that would make the next one fail.
func TestMachineProbeRuns(t *testing.T) {
	for i := 0; i < 2; i++ {
		d, err := machineProbe()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 || d > 30*time.Second {
			t.Errorf("probe took %v", d)
		}
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) gives
// [2.75, 5.5, 8.25], and for [3,1,4,1,5] gives [1.0, 3.0, 4.5].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("ten values: got %v, want %v", got, want)
	}
	got = quartileSpread([]float64{3, 1, 4, 1, 5})
	if want := (4.5 - 1.0) / 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("five values: got %v, want %v", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	span := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 180}, {120, 130}}, 30},
		{"parallel fan-out, slowest sets the cover", []interval{{105, 140}, {105, 190}, {106, 120}}, 15},
		{"sticking out is clipped", []interval{{50, 120}, {190, 300}}, 70},
		{"outside entirely", []interval{{10, 20}, {300, 400}}, 100},
		{"unsorted", []interval{{160, 170}, {110, 120}}, 80},
	} {
		if got := selfTime(span, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{minValueSize("key-8191"), 128, 16 << 10} {
		buf := make([]byte, size)
		encodeValue(buf, "key-8191", 1, 1<<40+7)
		caller, seq, err := decodeValue(buf, "key-8191", size)
		if err != nil || caller != 1 || seq != 1<<40+7 {
			t.Fatalf("size %d: got caller %d seq %d err %v", size, caller, seq, err)
		}
		if _, _, err := decodeValue(buf, "key-1", size); !errors.Is(err, errBadValue) {
			t.Errorf("size %d: a value read under another key must fail, got %v", size, err)
		}
		if _, _, err := decodeValue(buf[:size-1], "key-8191", size); !errors.Is(err, errBadValue) {
			t.Errorf("size %d: a short value must fail, got %v", size, err)
		}
		buf[size-1] ^= 1
		if _, _, err := decodeValue(buf, "key-8191", size); !errors.Is(err, errBadValue) {
			t.Errorf("size %d: a flipped bit must fail, got %v", size, err)
		}
	}
	if _, _, err := decodeValue(nil, "key-1", 0); !errors.Is(err, errBadValue) {
		t.Errorf("an empty value must fail, got %v", err)
	}
}

func TestKeyIndexInvertsKeyName(t *testing.T) {
	for _, k := range []int{0, 7, 8191} {
		if got := keyIndex(keyName(k)); got != k {
			t.Errorf("keyIndex(keyName(%d)) = %d", k, got)
		}
	}
}

// Writes are rounded to the caller's residue class, which stays inside the
// key population only when the callers divide it.
func TestCallersDivideEveryKeyPopulation(t *testing.T) {
	for _, w := range workloads {
		if w.keys%callers != 0 {
			t.Errorf("%s: %d keys over %d callers", w.name, w.keys, callers)
		}
		if minValueSize(keyName(w.keys-1)) > w.valueSize {
			t.Errorf("%s: %d B values cannot carry their key", w.name, w.valueSize)
		}
	}
}

func TestScaledSegmentOpsIsEvenAndProportional(t *testing.T) {
	w := workloadDef{segmentOps: 18000}
	if got := w.scaledSegmentOps(refSeconds); got != 18000 {
		t.Errorf("at the reference length: %d", got)
	}
	if got := w.scaledSegmentOps(1); got != 1500 {
		t.Errorf("at one second: %d", got)
	}
	if got := (workloadDef{segmentOps: 11}).scaledSegmentOps(1); got != callers {
		t.Errorf("never below one op per caller: %d", got)
	}
}

// pipeConn is the far side of a shim in tests: what the shim sends comes
// out of sent, what is pushed into in arrives at the shim.
type pipeConn struct {
	addr transport.Addr
	in   chan transport.Message
	sent chan transport.Message
}

func newPipeConn(addr transport.Addr) *pipeConn {
	return &pipeConn{addr: addr, in: make(chan transport.Message, 16), sent: make(chan transport.Message, 16)}
}
func (p *pipeConn) Addr() transport.Addr           { return p.addr }
func (p *pipeConn) Recv() <-chan transport.Message { return p.in }
func (p *pipeConn) Send(to transport.Addr, payload any) error {
	p.sent <- transport.Message{From: p.addr, To: to, Payload: payload}
	return nil
}

func recvWithin(t *testing.T, ch <-chan transport.Message) transport.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no message within 5 s")
		return transport.Message{}
	}
}

// A client and a replica endpoint, each behind a shim, exchange two
// requests whose replies come back in the opposite order; each reply must
// be attributed to its own request by ReqID, on both sides, and the spans
// must nest op → contact → serve.
func TestShimAttributesRepliesByReqID(t *testing.T) {
	tr := newTracer()
	clientSide, replicaSide := newPipeConn(-1), newPipeConn(3)
	cli := tr.wrap(clientSide).(*shimConn)
	rep := tr.wrap(replicaSide).(*shimConn)
	defer tr.stop()
	tr.on.Store(true)

	op := opID(0, 0)
	opStart := tr.stamp(time.Now())
	cli.curOp.Store(op)
	reqs := []any{wire.ReadReq{ReqID: 7, Key: "key-1"}, wire.CommitReq{ReqID: 8, Key: "key-1", Value: []byte("v")}}
	for _, req := range reqs {
		if err := cli.Send(3, req); err != nil {
			t.Fatal(err)
		}
		m := recvWithin(t, clientSide.sent) // the "network": client → replica
		replicaSide.in <- m
		if got := recvWithin(t, rep.Recv()); got.From != -1 {
			t.Fatalf("replica got a message from %d", got.From)
		}
	}
	// The replica answers the commit first, then the read.
	for _, resp := range []any{wire.CommitResp{ReqID: 8, OK: true}, wire.ReadResp{ReqID: 7, Key: "key-1", Found: true}} {
		time.Sleep(time.Millisecond) // keep the stamps apart
		if err := rep.Send(-1, resp); err != nil {
			t.Fatal(err)
		}
		m := recvWithin(t, replicaSide.sent)
		clientSide.in <- m
		recvWithin(t, cli.Recv())
	}
	cli.curOp.Store(0)
	tr.on.Store(false)
	tr.ops = []opSpan{{id: op, read: false, start: opStart, end: tr.stamp(time.Now())}}

	if len(cli.sent) != 2 || len(rep.served) != 2 {
		t.Fatalf("client recorded %d requests, replica %d", len(cli.sent), len(rep.served))
	}
	read, commit := cli.sent[0], cli.sent[1]
	if read.reqID != 7 || read.kind != kindRead || commit.reqID != 8 || commit.kind != kindCommit {
		t.Fatalf("client side: %+v %+v", read, commit)
	}
	if read.op != op || commit.op != op {
		t.Errorf("contacts not attributed to the caller's op: %d %d", read.op, commit.op)
	}
	if read.end == 0 || commit.end == 0 || !(commit.end < read.end) {
		t.Errorf("replies matched to the wrong requests: read ended %d, commit ended %d (commit was answered first)", read.end, commit.end)
	}
	sr, sc := rep.served[0], rep.served[1]
	if sr.reqID != 7 || sc.reqID != 8 || sr.end == 0 || sc.end == 0 || !(sc.end < sr.end) {
		t.Errorf("replica side: %+v %+v", sr, sc)
	}
	for _, s := range rep.served {
		if s.handoff < s.begin || s.end < s.handoff {
			t.Errorf("replica-side stamps out of order: %+v", s)
		}
	}
	// The second request was handed over only after the first reply left.
	if sr.handoff < sc.end {
		t.Errorf("read was answered after the commit, so the loop turned to it no earlier than the commit's reply: handoff %d, commit reply %d", sr.handoff, sc.end)
	}
	if len(cli.opened) != 0 || len(rep.taken) != 0 {
		t.Errorf("exchanges left open: %d client, %d replica", len(cli.opened), len(rep.taken))
	}

	sum, err := tr.summarize("")
	if err != nil {
		t.Fatal(err)
	}
	if sum.ops != 1 || sum.contactsByKind[kindRead] != 1 || sum.contactsByKind[kindCommit] != 1 ||
		sum.servesByKind[kindRead] != 1 || sum.servesByKind[kindCommit] != 1 || sum.unanswered != 0 || sum.messages != 4 {
		t.Errorf("summary: %+v", sum)
	}
	if len(sum.writeSelf) != 1 || sum.writeSelf[0] < 0 || sum.writeSelf[0] > sum.writeTotal[0] {
		t.Errorf("op self time %v of total %v", sum.writeSelf, sum.writeTotal)
	}
}

func TestShimIgnoresTrafficOutsideTheWindow(t *testing.T) {
	tr := newTracer()
	far := newPipeConn(-1)
	s := tr.wrap(far).(*shimConn)
	defer tr.stop()
	if err := s.Send(3, wire.ReadReq{ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, far.sent)
	far.in <- transport.Message{From: 3, To: -1, Payload: wire.ReadResp{ReqID: 1}}
	recvWithin(t, s.Recv())
	if len(s.sent) != 0 || len(s.served) != 0 {
		t.Errorf("recorded %d/%d exchanges while off", len(s.sent), len(s.served))
	}
}

func TestMessageMixMatchesClosedFormCost(t *testing.T) {
	w, err := workloadByName("write-heavy")
	if err != nil {
		t.Fatal(err)
	}
	an, err := w.analyze()
	if err != nil {
		t.Fatal(err)
	}
	mix, err := messageMix(w, an, 200)
	if err != nil {
		t.Fatal(err)
	}
	reads, versions, prepares, commits := 0, 0, 0, 0
	for _, m := range mix {
		switch m.(type) {
		case wire.ReadReq:
			reads++
		case wire.VersionReq:
			versions++
		case wire.PrepareReq:
			prepares++
		case wire.CommitReq:
			commits++
		}
	}
	readOps, writeOps := reads/an.ReadCost, versions/an.ReadCost
	if readOps+writeOps != 200 || reads%an.ReadCost != 0 || versions%an.ReadCost != 0 {
		t.Fatalf("%d read requests and %d version requests do not make 200 ops at read cost %d", reads, versions, an.ReadCost)
	}
	if prepares != commits || math.Abs(float64(prepares)/float64(writeOps)-an.WriteCostAvg) > 0.05 {
		t.Errorf("%d prepares over %d writes, want about %.2f each", prepares, writeOps, an.WriteCostAvg)
	}
}

func TestNullConnAnswersAtOnce(t *testing.T) {
	c := newNullConn(-1, instantReplica([]byte("v")))
	if err := c.Send(4, wire.ReadReq{ReqID: 9, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, c.Recv())
	resp, ok := m.Payload.(wire.ReadResp)
	if !ok || resp.ReqID != 9 || m.From != 4 || !resp.Found {
		t.Errorf("got %+v", m)
	}
}
