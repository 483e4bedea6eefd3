// Package wire defines the protocol's on-the-wire vocabulary: the message
// types clients and replicas exchange, the versioned Codec that serializes
// them, and the self-contained record format the durability layers (WAL,
// snapshots, checkpoints) share. It is a leaf package — transport, rpc and
// replica all build on it, so the message set and its encoding live in
// exactly one place.
//
// The message set is closed: the binary codec enumerates every type with an
// explicit tag byte, so an unknown payload is an encode-time error rather
// than a silent interoperability break. New messages are added here, with a
// new tag, a golden vector and a fuzz seed.
package wire

import "fmt"

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

// Request is a payload that carries a caller-allocated request ID. The rpc
// layer stamps the ID immediately before sending, so one request value can
// be fanned out to many sites, each call getting its own ID.
type Request interface {
	// WithReqID returns a copy of the request carrying the given ID.
	WithReqID(id uint64) any
}

// DeadlineCarrier is a request that propagates the caller's remaining time
// budget. The rpc layer stamps the budget immediately before sending (like
// WithReqID), so the value a replica sees is measured from the moment the
// message left the client, not from when the operation began. Zero means
// "no deadline" — the replica serves the request unconditionally.
type DeadlineCarrier interface {
	// WithDeadline returns a copy of the request carrying the remaining
	// budget in milliseconds.
	WithDeadline(millis uint64) any
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
	// its budget waiting for a slot. Every request type carries this field (it rides at the
	// end of the frame, so version-1 peers simply never see it).
	DeadlineMillis uint64
}

// WithReqID implements Request.
func (m VersionReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m VersionReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m ReadReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m ReadReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m PrepareReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m PrepareReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m CommitReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m CommitReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m AbortReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m AbortReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m SyncDigestReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m SyncDigestReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m SyncFetchReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m SyncFetchReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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

// WithReqID implements Request.
func (m PingReq) WithReqID(id uint64) any { m.ReqID = id; return m }

// WithDeadline implements DeadlineCarrier.
func (m PingReq) WithDeadline(millis uint64) any { m.DeadlineMillis = millis; return m }

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
