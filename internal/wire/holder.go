package wire

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
// only for that call: its holder refills it with the next message. The
// strings and byte slices inside are fresh allocations the consumer may
// keep; the message itself it must copy out or Box.
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
}

// Box returns the message m holds in an interface of its own — one
// allocation — or nil if it holds none.
func (m *Msg) Box() any {
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
