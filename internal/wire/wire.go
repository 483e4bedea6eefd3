// Package wire defines the protocol's on-the-wire vocabulary: the message
// types clients and replicas exchange, their versioned binary encoding
// (Append and Decode), and the self-contained record format of the
// write-ahead journal, compacted or not. It is a leaf package —
// transport, rpc and replica all build on it, so the message set and its
// encoding live in exactly one place.
//
// The message set is closed: the encoding enumerates every type with an
// explicit tag byte, so an unknown payload is an encode-time error rather
// than a silent interoperability break. New messages are added here, with a
// new tag, a golden vector, a fuzz seed, a field in a holder (Msg, or Reply
// for an answer to an rpc request) and a case in every holder switch (and,
// for a request, a stamping case in Append and in Msg.set).
package wire

import (
	"cmp"
	"fmt"
)

// Timestamp orders writes: higher version wins, and among equal versions
// the LOWER site identifier wins (§3.2.1 of the paper: reads retrieve the
// value "whose timestamp has the highest version number and the lowest site
// identifier"). Site may be negative — clients stamp writes with their
// (negative) IDs.
type Timestamp struct {
	Version uint64
	Site    int
}

// After reports whether t is strictly more recent than o.
func (t Timestamp) After(o Timestamp) bool {
	if t.Version != o.Version {
		return t.Version > o.Version
	}
	return t.Site < o.Site
}

// String renders "v<version>@s<site>".
func (t Timestamp) String() string {
	return fmt.Sprintf("v%d@s%d", t.Version, t.Site)
}

// Request is one of the eight request types below: a payload the rpc layer
// sends with a Stamp, so one request value can be fanned out to many sites,
// each call getting its own ID. The set is closed at compile time.
type Request interface{ request() }

// Stamp is what a sender writes into a request as it goes out (Append, or
// Stamped for a copy): its request ID and the budget left in milliseconds. A
// zero field leaves the request's own value; responses take no stamp.
type Stamp struct {
	ReqID          uint64
	DeadlineMillis uint64
}

// apply writes the stamp's nonzero fields over a request's.
func (st Stamp) apply(reqID, deadlineMillis *uint64) {
	*reqID = cmp.Or(st.ReqID, *reqID)
	*deadlineMillis = cmp.Or(st.DeadlineMillis, *deadlineMillis)
}

// Stamped returns a copy of payload in a box of its own, st written into it
// if it is a request: what a Conn that may keep its payload is handed. It
// fills a holder and boxes it. A payload outside the message set is an
// error.
func Stamped(payload any, st Stamp) (any, error) {
	var m Msg
	if err := m.set(payload, st); err != nil {
		return nil, err
	}
	return m.Box(), nil
}

// Request/response payloads exchanged between clients and replicas. Every
// request carries a client-chosen ReqID echoed in the response so the
// client can match replies to outstanding calls.

// VersionReq asks for the timestamp currently stored under Key.
type VersionReq struct {
	ReqID uint64
	Key   string
	// ForWrite marks the request as the version-discovery step of a write
	// (or transaction commit) rather than part of a read operation, so
	// replicas can attribute the serve to write-side load. The paper's
	// read load counts only read operations' accesses; without this split
	// a mixed workload inflates empirical read load with every write's
	// discovery quorum.
	ForWrite bool
	// DeadlineMillis is the caller's remaining budget in milliseconds at
	// send time; zero means no deadline. Replicas do not act on it: a
	// request is served or shed on arrival, never queued, so none outlives
	// its budget waiting for a slot. Every request type carries this field,
	// written from the sender's Stamp.
	DeadlineMillis uint64
}

func (VersionReq) request() {}

// VersionResp answers a VersionReq. Found is false if the key has never
// been written at this replica. Refused is true when the replica is
// catching up after a crash and not yet safe to serve version discovery;
// the client should treat the site as unavailable for this probe (but not
// dead — refusals come back instantly, unlike timeouts).
type VersionResp struct {
	ReqID   uint64
	Key     string
	TS      Timestamp
	Found   bool
	Refused bool
}

// ReadReq asks for the value stored under Key.
type ReadReq struct {
	ReqID uint64
	Key   string
	// DeadlineMillis is the remaining budget at send time; zero = none.
	DeadlineMillis uint64
	// Floor is the newest timestamp the caller has seen for Key; zero =
	// none. A replica storing something older leaves the value out.
	Floor Timestamp
}

// ValueOmitted reports whether a replica storing Key at ts answers with
// Found and TS alone: a pure function, so the caller can tell from a reply.
func (m ReadReq) ValueOmitted(ts Timestamp) bool {
	return m.Floor != (Timestamp{}) && m.Floor.After(ts)
}

func (ReadReq) request() {}

// ReadResp answers a ReadReq. Refused mirrors VersionResp.Refused: the
// replica is catching up and declines to serve possibly stale state.
type ReadResp struct {
	ReqID   uint64
	Key     string
	Value   []byte
	TS      Timestamp
	Found   bool
	Refused bool
}

// PrepareReq is phase one of a write: lock Key for transaction TxID,
// intending to install a value with timestamp TS.
type PrepareReq struct {
	ReqID uint64
	TxID  uint64
	Key   string
	TS    Timestamp
	// DeadlineMillis is the remaining budget at send time; zero = none.
	DeadlineMillis uint64
}

func (PrepareReq) request() {}

// PrepareResp acknowledges (or refuses) a prepare.
type PrepareResp struct {
	ReqID uint64
	TxID  uint64
	OK    bool
	// Reason explains a refusal ("locked", "stale").
	Reason string
}

// CommitReq is phase two of a write: install Value under Key with TS and
// release the transaction's lock.
type CommitReq struct {
	ReqID uint64
	TxID  uint64
	Key   string
	Value []byte
	TS    Timestamp
	// DeadlineMillis is the remaining budget at send time; zero = none.
	// Commits are never shed or expired server-side — the field rides
	// along only so every request shares one stamping path.
	DeadlineMillis uint64
}

func (CommitReq) request() {}

// CommitResp acknowledges a commit.
type CommitResp struct {
	ReqID uint64
	TxID  uint64
	OK    bool
}

// AbortReq releases the transaction's lock without writing.
type AbortReq struct {
	ReqID uint64
	TxID  uint64
	Key   string
	// DeadlineMillis is the remaining budget at send time; zero = none.
	// Aborts, like commits, are never shed or expired server-side.
	DeadlineMillis uint64
}

func (AbortReq) request() {}

// AbortResp acknowledges an abort.
type AbortResp struct {
	ReqID uint64
	TxID  uint64
}

// Anti-entropy catch-up messages. A recovering replica drives these against
// one live site per other physical level: SyncDigestReq pages through the
// source's key/timestamp digest in key order, and SyncFetchReq pulls the
// values for exactly the keys whose source timestamp beats the local one.
// Unlike the client messages above, both sides of this exchange are
// replicas; the recovering replica routes responses by ReqID as they are
// delivered to it.

// SyncDigestReq asks a source replica for one page of its digest: up to
// Limit key/timestamp pairs in ascending key order, strictly after
// StartAfter (empty string starts from the beginning).
type SyncDigestReq struct {
	ReqID      uint64
	StartAfter string
	Limit      int
	// DeadlineMillis is the remaining budget at send time; zero = none.
	DeadlineMillis uint64
}

func (SyncDigestReq) request() {}

// DigestEntry is one key/timestamp pair of a digest page.
type DigestEntry struct {
	Key string
	TS  Timestamp
}

// SyncDigestResp answers a SyncDigestReq. More reports whether keys beyond
// the last entry remain.
type SyncDigestResp struct {
	ReqID   uint64
	Entries []DigestEntry
	More    bool
}

// SyncFetchReq asks a source replica for the current values of Keys.
type SyncFetchReq struct {
	ReqID uint64
	Keys  []string
	// DeadlineMillis is the remaining budget at send time; zero = none.
	DeadlineMillis uint64
}

func (SyncFetchReq) request() {}

// SyncItem is one fetched key: the source's current value and timestamp
// (which may be newer than the digest that requested it — newer is fine,
// the store applies timestamp-ordered writes idempotently).
type SyncItem struct {
	Key   string
	Value []byte
	TS    Timestamp
	Found bool
}

// SyncFetchResp answers a SyncFetchReq.
type SyncFetchResp struct {
	ReqID uint64
	Items []SyncItem
}

// PingReq probes liveness.
type PingReq struct {
	ReqID uint64
	// DeadlineMillis is the remaining budget at send time; zero = none.
	DeadlineMillis uint64
}

func (PingReq) request() {}

// PingResp answers a ping.
type PingResp struct {
	ReqID uint64
	Site  int
}

// OverloadedResp is a replica's typed load-shed reply: the admission gate
// refused the request outright (queue full, saturated, or draining) or the
// request's budget expired while it waited. It can answer any request type
// the gate covers — reads, version probes and prepares; phase-two commits
// and aborts are never shed. Unlike a timeout, an overload reply comes back
// instantly and says the site is alive, just busy: clients skip elsewhere
// without burning their deadline and honor RetryAfterMillis as a backoff
// floor before contacting this site again.
type OverloadedResp struct {
	ReqID uint64
	// RetryAfterMillis is the replica's backoff hint: how long the client
	// should wait before sending this site more sheddable work.
	RetryAfterMillis uint64
}
