package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Tracing is done from here, around the calls into each layer, with no
// edit inside the program: a shim wraps every transport.Conn the clients
// and replicas are given and stamps each request, matched by request ID,
// at four points —
//
//	client Send ─▶ arrival at the replica's endpoint ─▶ replica's reply Send
//	     ─▶ arrival of the reply at the client's endpoint
//
// which yields the spans op → contact → {inbox, serve}. With one caller
// per client endpoint every contact falls inside exactly one op.

// msgKind is the request type of an exchange.
type msgKind uint8

const (
	kindOther msgKind = iota
	kindRead
	kindVersion
	kindPrepare
	kindCommit
	kindAbort
)

func (k msgKind) String() string {
	return [...]string{"other", "read", "version", "prepare", "commit", "abort"}[k]
}

// requestOf classifies a payload as a request and extracts its ID; replies
// are recognised by rpc.ReqIDOf.
func requestOf(payload any) (kind msgKind, reqID uint64, ok bool) {
	switch m := payload.(type) {
	case wire.ReadReq:
		return kindRead, m.ReqID, true
	case wire.VersionReq:
		return kindVersion, m.ReqID, true
	case wire.PrepareReq:
		return kindPrepare, m.ReqID, true
	case wire.CommitReq:
		return kindCommit, m.ReqID, true
	case wire.AbortReq:
		return kindAbort, m.ReqID, true
	case wire.PingReq:
		return kindOther, m.ReqID, true
	}
	return 0, 0, false
}

// exchange is one request and its reply as seen at one endpoint. Times are
// nanoseconds since the tracer's epoch; zero means "did not happen".
type exchange struct {
	peer  transport.Addr
	reqID uint64
	kind  msgKind
	op    int64 // client side: the op the endpoint's caller was inside

	// Client side: begin = request Send, end = the reply reached the
	// endpoint. Replica side: begin = the request reached the endpoint,
	// handoff = the event loop turned to it, end = reply Send.
	begin, handoff, end int64

	reqBytes, respBytes int
}

type exchangeKey struct {
	peer  transport.Addr
	reqID uint64
}

// opSpan is one Client.Read or Client.Write call, recorded by its caller.
type opSpan struct {
	id         int64
	read       bool
	start, end int64
}

func opID(caller, n int) int64 { return int64(caller+1)<<40 | int64(n+1) }

// tracer owns the shims of one cluster and the spans they collect. Spans
// stay in memory and are written out when the run ends.
type tracer struct {
	epoch time.Time
	// on gates recording: set only while a measured segment runs, with the
	// callers quiesced on either side, so the window holds whole ops only
	// and lines up with the Client.Metrics deltas of the same segments.
	on atomic.Bool

	shims map[transport.Addr]*shimConn
	ops   []opSpan
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), shims: make(map[transport.Addr]*shimConn)}
}

func (t *tracer) stamp(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// shimInbox matches the TCP endpoint's own inbox, so the shim never makes
// a message wait where the real endpoint would not.
const shimInbox = 1024

func (t *tracer) wrap(inner transport.Conn) transport.Conn {
	s := &shimConn{
		inner:  inner,
		tr:     t,
		out:    make(chan transport.Message, shimInbox),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		opened: make(map[exchangeKey]int),
		taken:  make(map[exchangeKey]int),
	}
	t.shims[inner.Addr()] = s
	go s.pump()
	return s
}

func (t *tracer) clientShim(caller int) *shimConn { return t.shims[transport.Addr(-(caller + 1))] }

// stop ends every shim's forwarding goroutine and waits for it.
func (t *tracer) stop() {
	for _, s := range t.shims {
		close(s.quit)
		<-s.done
	}
}

// shimConn is a transport.Conn that forwards to the real endpoint and
// records an exchange for every request it sends or receives.
type shimConn struct {
	inner      transport.Conn
	tr         *tracer
	out        chan transport.Message
	quit, done chan struct{}

	// curOp is the op the endpoint's single caller is inside (0 = none).
	curOp atomic.Int64

	mu      sync.Mutex
	scratch []byte              // for counting encoded bytes
	sent    []exchange          // requests this endpoint originated
	served  []exchange          // requests this endpoint received
	opened  map[exchangeKey]int // index into sent of requests awaiting a reply
	taken   map[exchangeKey]int // index into served of requests not yet answered
	// freeAt is when this endpoint's last reply Send returned: a replica
	// serves on one event-loop goroutine and ends each request with its
	// reply, so that is when the loop could turn to the next message.
	freeAt int64
}

func (s *shimConn) Addr() transport.Addr           { return s.inner.Addr() }
func (s *shimConn) Recv() <-chan transport.Message { return s.out }

// encodedLen is the payload's size under the binary codec. Callers hold mu.
func (s *shimConn) encodedLen(payload any) int {
	buf, err := wire.Binary().Encode(s.scratch[:0], payload)
	if err != nil {
		return 0
	}
	s.scratch = buf
	return len(buf)
}

// Send records an outgoing request (client side) or closes the served
// exchange a reply answers (replica side), then forwards.
//
// A request's hand-over to the replica is not stamped where it happens —
// that would need a hook inside the event loop — but derived on the event
// loop's own goroutine, here: the loop turned to the request when it had
// arrived and the previous reply had been sent, whichever came later. A
// stamp taken by the forwarding goroutine after its channel send completes
// was tried first and read late whenever the loop was busy, which is the
// case the inbox wait exists to show.
func (s *shimConn) Send(to transport.Addr, payload any) error {
	if !s.tr.on.Load() {
		return s.inner.Send(to, payload)
	}
	_, isReply := rpc.ReqIDOf(payload)
	s.record(to, payload, s.tr.stamp(time.Now()))
	err := s.inner.Send(to, payload)
	if isReply {
		done := s.tr.stamp(time.Now())
		s.mu.Lock()
		s.freeAt = done
		s.mu.Unlock()
	}
	return err
}

func (s *shimConn) record(to transport.Addr, payload any, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kind, id, ok := requestOf(payload); ok {
		if id != 0 { // ID 0 is fire-and-forget: no reply will be matched
			s.opened[exchangeKey{to, id}] = len(s.sent)
			s.sent = append(s.sent, exchange{peer: to, reqID: id, kind: kind, op: s.curOp.Load(), begin: now, reqBytes: s.encodedLen(payload)})
		}
	} else if id, ok := rpc.ReqIDOf(payload); ok {
		if i, ok := s.taken[exchangeKey{to, id}]; ok {
			delete(s.taken, exchangeKey{to, id})
			ex := &s.served[i]
			ex.handoff, ex.end = max(ex.begin, s.freeAt), now
			ex.respBytes = s.encodedLen(payload)
		}
	}
}

// pump moves messages from the real endpoint to out, stamping each arrival:
// an incoming request opens a served exchange (replica side), a reply
// closes the sent one it answers (client side).
func (s *shimConn) pump() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case m := <-s.inner.Recv():
			if s.tr.on.Load() {
				s.arrived(m, s.tr.stamp(time.Now()))
			}
			select {
			case <-s.quit:
				return
			case s.out <- m:
			}
		}
	}
}

func (s *shimConn) arrived(m transport.Message, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kind, id, ok := requestOf(m.Payload); ok {
		if id != 0 {
			s.taken[exchangeKey{m.From, id}] = len(s.served)
			s.served = append(s.served, exchange{peer: m.From, reqID: id, kind: kind, begin: now})
		}
	} else if id, ok := rpc.ReqIDOf(m.Payload); ok {
		if i, ok := s.opened[exchangeKey{m.From, id}]; ok {
			delete(s.opened, exchangeKey{m.From, id})
			s.sent[i].end = now
		}
	}
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// selfTime is the span's duration minus the part of it its children cover:
// children may overlap each other and stick out of the parent.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := int64(0), span.start
	for _, c := range clipped {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return span.end - span.start - covered
}

// contact is a client-side exchange joined with the replica-side record of
// the same request (nil when the replica never saw it inside the window).
type contact struct {
	exchange
	serve *exchange
}

// traceSummary is what the traced run's spans reduce to.
type traceSummary struct {
	ops int

	// Per-kind counts of client-side contacts that belong to an op, and of
	// the replica-side serves matched to them.
	contactsByKind, servesByKind [kindAbort + 1]int
	readOpContacts               int // contacts whose op is a read
	writeOpDiscoveryPrepare      int // version + prepare contacts whose op is a write
	unanswered                   int
	messages                     int // requests + replies
	wireBytes                    int64

	contactRTT, oneWay, inboxWait              []float64 // µs
	serveRead, servePrepare, serveCommit       []float64 // µs
	readSelf, writeSelf, readTotal, writeTotal []float64 // µs
}

// span is one line of the trace file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Site    int    `json:"site,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

const usPerNS = 1e-3

// summarize joins the shims' records into spans, reduces them to the
// summary, and writes the spans to path (one JSON object per line) when
// path is not empty.
func (t *tracer) summarize(path string) (sum traceSummary, err error) {
	var enc *json.Encoder
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return sum, err
		}
		f, err := os.Create(path)
		if err != nil {
			return sum, err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		enc = json.NewEncoder(bw)
		defer func() {
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	// emit writes one span and returns its ID; the first write error is
	// kept and returned at the end.
	nextID := 0
	var writeErr error
	emit := func(sp span) int {
		nextID++
		sp.ID = nextID
		if enc != nil && writeErr == nil {
			writeErr = enc.Encode(sp)
		}
		return nextID
	}

	// Index the replica-side records by (client, request ID) per site.
	type servedAt struct {
		site transport.Addr
		key  exchangeKey
	}
	served := make(map[servedAt]*exchange)
	for site, s := range t.shims {
		for i := range s.served {
			ex := &s.served[i]
			served[servedAt{site, exchangeKey{ex.peer, ex.reqID}}] = ex
		}
	}
	// Group the client-side records by op.
	byOp := make(map[int64][]contact)
	for addr, s := range t.shims {
		for _, ex := range s.sent {
			c := contact{exchange: ex, serve: served[servedAt{ex.peer, exchangeKey{addr, ex.reqID}}]}
			byOp[ex.op] = append(byOp[ex.op], c)
			sum.messages++
			sum.wireBytes += int64(ex.reqBytes)
			if c.serve != nil && c.serve.end != 0 {
				sum.messages++
				sum.wireBytes += int64(c.serve.respBytes)
			}
		}
	}

	sort.Slice(t.ops, func(i, j int) bool { return t.ops[i].start < t.ops[j].start })
	for _, op := range t.ops {
		sum.ops++
		kind := "write"
		if op.read {
			kind = "read"
		}
		opSpanID := emit(span{Op: op.id, Name: "op", Kind: kind, StartNS: op.start, EndNS: op.end})
		cs := byOp[op.id]
		children := make([]interval, 0, len(cs))
		for _, c := range cs {
			sum.contactsByKind[c.kind]++
			switch {
			case op.read:
				sum.readOpContacts++
			case c.kind == kindVersion || c.kind == kindPrepare:
				sum.writeOpDiscoveryPrepare++
			}
			end := c.end
			if end == 0 {
				// Never answered inside the op (a cancelled hedge, a
				// timeout): the contact covers the rest of the op.
				sum.unanswered++
				end = op.end
			}
			children = append(children, interval{c.begin, end})
			contactID := emit(span{Parent: opSpanID, Op: op.id, Name: "contact", Kind: c.kind.String(), Site: int(c.peer), StartNS: c.begin, EndNS: end})
			if c.serve == nil || c.serve.end == 0 {
				continue
			}
			sum.servesByKind[c.kind]++
			sv := c.serve
			emit(span{Parent: contactID, Op: op.id, Name: "inbox", Kind: c.kind.String(), Site: int(c.peer), StartNS: sv.begin, EndNS: sv.handoff})
			emit(span{Parent: contactID, Op: op.id, Name: "serve", Kind: c.kind.String(), Site: int(c.peer), StartNS: sv.handoff, EndNS: sv.end})
			serveUS := float64(sv.end-sv.handoff) * usPerNS
			switch c.kind {
			case kindRead:
				sum.serveRead = append(sum.serveRead, serveUS)
			case kindPrepare:
				sum.servePrepare = append(sum.servePrepare, serveUS)
			case kindCommit:
				sum.serveCommit = append(sum.serveCommit, serveUS)
			}
			sum.inboxWait = append(sum.inboxWait, float64(sv.handoff-sv.begin)*usPerNS)
			if c.end != 0 {
				sum.contactRTT = append(sum.contactRTT, float64(c.end-c.begin)*usPerNS)
				// What the contact spent outside the replica, both ways.
				self := selfTime(interval{c.begin, c.end}, []interval{{sv.begin, sv.end}})
				sum.oneWay = append(sum.oneWay, float64(self)*usPerNS/2)
			}
		}
		self := float64(selfTime(interval{op.start, op.end}, children)) * usPerNS
		total := float64(op.end-op.start) * usPerNS
		if op.read {
			sum.readSelf, sum.readTotal = append(sum.readSelf, self), append(sum.readTotal, total)
		} else {
			sum.writeSelf, sum.writeTotal = append(sum.writeSelf, self), append(sum.writeTotal, total)
		}
	}
	if stray := len(byOp[0]); stray > 0 {
		return sum, fmt.Errorf("trace: %d contacts were sent outside any op", stray)
	}
	return sum, writeErr
}
