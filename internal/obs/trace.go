package obs

import (
	"sync"
	"time"
)

// Operation outcomes recorded on an OpTrace.
const (
	OutcomeOK          = "ok"
	OutcomeNotFound    = "not_found"
	OutcomeUnavailable = "unavailable"
	OutcomeInDoubt     = "in_doubt"
	OutcomeConflict    = "conflict"
	OutcomeError       = "error"
)

// SiteContact is one request sent to one replica site during an operation.
type SiteContact struct {
	Site     int           `json:"site"`
	Phase    string        `json:"phase"` // read | read-ts (answered without the value) | version | prepare | commit | abort
	Start    time.Time     `json:"start"`
	RTT      time.Duration `json:"rttNs"`
	TimedOut bool          `json:"timedOut,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// LevelAttempt is one physical level's part in an operation: for reads, the
// site-by-site probe of one level; for writes, one 2PC attempt over a
// level's full membership (a failed attempt is followed by a fallback
// attempt on another level).
type LevelAttempt struct {
	Level    int           `json:"level"`
	Phase    string        `json:"phase"` // read-quorum | read-refetch | version-discovery | write-2pc
	Start    time.Time     `json:"start"`
	End      time.Time     `json:"end"`
	OK       bool          `json:"ok"`
	Err      string        `json:"err,omitempty"`
	Contacts []SiteContact `json:"contacts,omitempty"`
}

// OpTrace is the structured record of one client operation: every level
// attempted, every site contacted (with per-contact round-trip times,
// timeouts and 2PC phases), and the final outcome.
type OpTrace struct {
	ID       uint64         `json:"id"`
	Op       string         `json:"op"` // read | write | txn
	Key      string         `json:"key"`
	Client   int            `json:"client"`
	Start    time.Time      `json:"start"`
	End      time.Time      `json:"end"`
	Outcome  string         `json:"outcome"`
	Err      string         `json:"err,omitempty"`
	Contacts int            `json:"totalContacts"`
	Attempts []LevelAttempt `json:"attempts"`
}

// Duration returns the operation's wall time.
func (t OpTrace) Duration() time.Duration { return t.End.Sub(t.Start) }

// TraceRecorder keeps the last capacity finished operation traces in a ring
// buffer. It is safe for concurrent use and safe on a nil receiver.
type TraceRecorder struct {
	mu    sync.Mutex
	buf   []OpTrace
	next  int
	total uint64
	cap   int
}

// NewTraceRecorder creates a recorder retaining the last capacity traces
// (minimum 1).
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRecorder{buf: make([]OpTrace, 0, capacity), cap: capacity}
}

// Start opens a trace for one operation. Returns nil (a no-op builder) on a
// nil recorder.
func (r *TraceRecorder) Start(op, key string, clientID int) *Op {
	if r == nil {
		return nil
	}
	return &Op{rec: r, t: OpTrace{Op: op, Key: key, Client: clientID, Start: time.Now()}}
}

// add appends a finished trace, evicting the oldest beyond capacity.
func (r *TraceRecorder) add(t OpTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	t.ID = r.total
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.cap
}

// Total returns how many traces have ever been recorded.
func (r *TraceRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n of the most recent traces, oldest first.
func (r *TraceRecorder) Last(n int) []OpTrace {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := len(r.buf)
	if n > size {
		n = size
	}
	out := make([]OpTrace, 0, n)
	// Oldest entry is at r.next once the ring wrapped, 0 before that.
	start := 0
	if size == r.cap {
		start = r.next
	}
	for i := size - n; i < size; i++ {
		out = append(out, r.buf[(start+i)%size])
	}
	return out
}

// Op accumulates one operation's trace. All methods are safe on a nil
// receiver and safe for concurrent use (levels are probed in parallel).
type Op struct {
	rec *TraceRecorder
	mu  sync.Mutex
	t   OpTrace
}

// On reports whether tracing is live for this operation, letting hot paths
// skip timestamping work when it is not.
func (o *Op) On() bool { return o != nil }

// Level opens a level-attempt span within the operation.
func (o *Op) Level(level int, phase string) *LevelSpan {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	o.t.Attempts = append(o.t.Attempts, LevelAttempt{Level: level, Phase: phase, Start: time.Now()})
	idx := len(o.t.Attempts) - 1
	o.mu.Unlock()
	return &LevelSpan{op: o, idx: idx}
}

// Finish seals the trace with its outcome and hands it to the recorder.
func (o *Op) Finish(outcome string, err error, contacts int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.t.End = time.Now()
	o.t.Outcome = outcome
	if err != nil {
		o.t.Err = err.Error()
	}
	o.t.Contacts = contacts
	t := o.t
	o.mu.Unlock()
	o.rec.add(t)
}

// LevelSpan records into one LevelAttempt of an Op.
type LevelSpan struct {
	op  *Op
	idx int
}

// On reports whether the span is live.
func (s *LevelSpan) On() bool { return s != nil }

// Contact records one request/response exchange with a site.
func (s *LevelSpan) Contact(site int, phase string, start time.Time, rtt time.Duration, err error, timedOut bool) {
	if s == nil {
		return
	}
	c := SiteContact{Site: site, Phase: phase, Start: start, RTT: rtt, TimedOut: timedOut}
	if err != nil {
		c.Err = err.Error()
	}
	s.op.mu.Lock()
	a := &s.op.t.Attempts[s.idx]
	a.Contacts = append(a.Contacts, c)
	s.op.mu.Unlock()
}

// Done seals the level attempt with its outcome.
func (s *LevelSpan) Done(ok bool, err error) {
	if s == nil {
		return
	}
	s.op.mu.Lock()
	a := &s.op.t.Attempts[s.idx]
	a.End = time.Now()
	a.OK = ok
	if err != nil {
		a.Err = err.Error()
	}
	s.op.mu.Unlock()
}
