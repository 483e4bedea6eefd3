package wire

import "unsafe"

// Reply holds one answer to an rpc request by value: Tag names the field
// that holds it. It is what the rpc layer hands the client engine, which
// keeps it in place of a boxed payload; Msg embeds it, so copying a served
// Msg's Reply is the whole hand-off, and a Msg made of a Reply boxes it.
type Reply struct {
	Tag            Tag
	VersionResp    VersionResp
	ReadResp       ReadResp
	PrepareResp    PrepareResp
	CommitResp     CommitResp
	AbortResp      AbortResp
	PingResp       PingResp
	OverloadedResp OverloadedResp
}

// Msg holds any one message by value: Tag names the field that holds it, and
// the other fields are stale. It is what a served frame is decoded into
// (Msg.Decode), so receiving costs no box. A Msg lent to a consumer is valid
// only for that call: its holder refills it with the next message, so the
// consumer copies out or Boxes what it keeps. A decoded Msg's keys are views
// of the frame, valid only for the call too, and are cloned where they are
// kept (Own, which Box calls); its other strings and its byte slices are fresh allocations
// the consumer may keep. A Msg filled by Set shares the sender's strings,
// which are immutable, and clones nothing.
type Msg struct {
	Reply
	VersionReq     VersionReq
	ReadReq        ReadReq
	PrepareReq     PrepareReq
	CommitReq      CommitReq
	AbortReq       AbortReq
	PingReq        PingReq
	SyncDigestReq  SyncDigestReq
	SyncDigestResp SyncDigestResp
	SyncFetchReq   SyncFetchReq
	SyncFetchResp  SyncFetchResp

	view bool // keys are views of the decoded frame (Decode)
}

// Borrowed reports whether m's keys are views of the frame Decode filled it
// from, which whatever keeps one past the handler call must clone.
func (m *Msg) Borrowed() bool { return m.view }

// Clone returns a copy of s, a key that is a view of a frame, that may be
// kept: it allocates as decoding into a fresh string does, so a key of one
// byte costs nothing (the runtime has a string for every byte value), where
// strings.Clone would allocate.
func Clone(s string) string { return string(unsafe.Slice(unsafe.StringData(s), len(s))) }

// Own makes the message m holds one that may be kept past the handler call:
// a key that is a view of the frame is cloned, and the keys of stale fields,
// views of earlier frames, are dropped. One filled by Set owns its keys
// already, and so does every message with no fixed-place Key (sync keys,
// like every string but a Key, are fresh allocations).
func (m *Msg) Own() {
	if !m.view {
		return
	}
	m.view = false
	var key *string
	switch m.Tag {
	case TagVersionReq:
		key = &m.VersionReq.Key
	case TagVersionResp:
		key = &m.VersionResp.Key
	case TagReadReq:
		key = &m.ReadReq.Key
	case TagReadResp:
		key = &m.ReadResp.Key
	case TagPrepareReq:
		key = &m.PrepareReq.Key
	case TagCommitReq:
		key = &m.CommitReq.Key
	case TagAbortReq:
		key = &m.AbortReq.Key
	case TagPrepareResp, TagCommitResp, TagAbortResp, TagPingReq, TagPingResp, TagOverloadedResp,
		TagSyncDigestReq, TagSyncDigestResp, TagSyncFetchReq, TagSyncFetchResp:
		// no key that is a view
	}
	var own string
	if key != nil {
		own = Clone(*key)
	}
	m.DropKeys()
	m.VersionReq.Key, m.ReadReq.Key, m.PrepareReq.Key, m.CommitReq.Key, m.AbortReq.Key = "", "", "", "", ""
	if key != nil {
		*key = own
	}
}

// DropKeys clears r's answers' keys, stale fields' included: what a consumer
// that never reads a reply's key does to its copy of a served one, so no
// view of the frame outlives the handler call.
func (r *Reply) DropKeys() { r.VersionResp.Key, r.ReadResp.Key = "", "" }

// Box returns the message m holds in an interface of its own — one
// allocation, and a clone of a key that is a view of the frame (Own), so the
// box may be kept — or nil if it holds none.
func (m *Msg) Box() any {
	m.Own()
	switch m.Tag {
	case TagVersionReq:
		return m.VersionReq
	case TagVersionResp:
		return m.VersionResp
	case TagReadReq:
		return m.ReadReq
	case TagReadResp:
		return m.ReadResp
	case TagPrepareReq:
		return m.PrepareReq
	case TagPrepareResp:
		return m.PrepareResp
	case TagCommitReq:
		return m.CommitReq
	case TagCommitResp:
		return m.CommitResp
	case TagAbortReq:
		return m.AbortReq
	case TagAbortResp:
		return m.AbortResp
	case TagPingReq:
		return m.PingReq
	case TagPingResp:
		return m.PingResp
	case TagOverloadedResp:
		return m.OverloadedResp
	case TagSyncDigestReq:
		return m.SyncDigestReq
	case TagSyncDigestResp:
		return m.SyncDigestResp
	case TagSyncFetchReq:
		return m.SyncFetchReq
	case TagSyncFetchResp:
		return m.SyncFetchResp
	}
	return nil
}

// Set makes m hold payload, a message boxed by a Conn that passes payloads
// by reference; a payload outside the message set leaves m holding nothing
// and is an error.
func (m *Msg) Set(payload any) error { return m.set(payload, Stamp{}) }

// set is Set with st written into a request: the one switch that fills a
// holder from a box.
func (m *Msg) set(payload any, st Stamp) error {
	m.view = false
	switch p := payload.(type) {
	case VersionReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.VersionReq = TagVersionReq, p
	case VersionResp:
		m.Tag, m.VersionResp = TagVersionResp, p
	case ReadReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.ReadReq = TagReadReq, p
	case ReadResp:
		m.Tag, m.ReadResp = TagReadResp, p
	case PrepareReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.PrepareReq = TagPrepareReq, p
	case PrepareResp:
		m.Tag, m.PrepareResp = TagPrepareResp, p
	case CommitReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.CommitReq = TagCommitReq, p
	case CommitResp:
		m.Tag, m.CommitResp = TagCommitResp, p
	case AbortReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.AbortReq = TagAbortReq, p
	case AbortResp:
		m.Tag, m.AbortResp = TagAbortResp, p
	case PingReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.PingReq = TagPingReq, p
	case PingResp:
		m.Tag, m.PingResp = TagPingResp, p
	case OverloadedResp:
		m.Tag, m.OverloadedResp = TagOverloadedResp, p
	case SyncDigestReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.SyncDigestReq = TagSyncDigestReq, p
	case SyncDigestResp:
		m.Tag, m.SyncDigestResp = TagSyncDigestResp, p
	case SyncFetchReq:
		st.apply(&p.ReqID, &p.DeadlineMillis)
		m.Tag, m.SyncFetchReq = TagSyncFetchReq, p
	case SyncFetchResp:
		m.Tag, m.SyncFetchResp = TagSyncFetchResp, p
	default:
		m.Tag = 0
		return errNotMessage
	}
	return nil
}

// ReqID returns the request ID of the answer r holds; ok is false if it
// holds none (in a Msg: if the message is not an answer to an rpc request).
func (r *Reply) ReqID() (id uint64, ok bool) {
	switch r.Tag {
	case TagVersionResp:
		return r.VersionResp.ReqID, true
	case TagReadResp:
		return r.ReadResp.ReqID, true
	case TagPrepareResp:
		return r.PrepareResp.ReqID, true
	case TagCommitResp:
		return r.CommitResp.ReqID, true
	case TagAbortResp:
		return r.AbortResp.ReqID, true
	case TagPingResp:
		return r.PingResp.ReqID, true
	case TagOverloadedResp:
		return r.OverloadedResp.ReqID, true
	}
	return 0, false
}
