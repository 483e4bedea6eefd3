package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// Version is the wire-format version every frame starts with. Version 2
// appended a deadline (uvarint millis-remaining) to every request type and
// added OverloadedResp; version 3 appended a floor timestamp to ReadReq. The
// TCP handshake refuses a peer of any other version, so Decode accepts this
// one alone. Bump it on any incompatible layout change.
const Version byte = 3

// MaxPooledBuf is the largest encode buffer a pool or a journal keeps for
// reuse: frames and journal records reach tens of MiB, and a kept buffer
// never shrinks.
const MaxPooledBuf = 1 << 20

// Tag names a message type: the byte after a frame's version, and the field
// of a holder (Msg, Reply) that holds the message. Tag 0 is reserved, so a
// zeroed buffer never decodes and a zero holder holds nothing.
type Tag byte

// Message type tags.
const (
	TagVersionReq Tag = iota + 1
	TagVersionResp
	TagReadReq
	TagReadResp
	TagPrepareReq
	TagPrepareResp
	TagCommitReq
	TagCommitResp
	TagAbortReq
	TagAbortResp
	TagPingReq
	TagPingResp
	TagSyncDigestReq
	TagSyncDigestResp
	TagSyncFetchReq
	TagSyncFetchResp
	TagOverloadedResp
)

// errNotMessage names no type: formatting the payload would make every
// payload handed to Append or Stamped escape to the heap.
var errNotMessage = errors.New("wire: not a protocol message")

// Binary returns Append (unstamped) and Decode as methods, the shape the
// benchmark module (bench/), its one caller, is written against.
func Binary() Shim { return Shim{} }

// Shim is what Binary returns; it goes when bench/ calls Append and Decode.
type Shim struct{}

// Encode is Append with no stamp.
func (Shim) Encode(dst []byte, payload any) ([]byte, error) { return Append(dst, payload, Stamp{}) }

// Decode is the package's Decode.
func (Shim) Decode(data []byte) (any, error) { return Decode(data) }

// Append appends payload's encoding to dst, st written into it if it is a
// request. It retains nothing of payload, even on its error path, so a
// payload handed to it can live on the caller's stack.
//
// Layout: every message is [version byte][tag byte][fields]. Fields are
// encoded in struct order with four primitives and no padding:
//
//	uint    — unsigned varint (encoding/binary uvarint)
//	int     — signed varint (zig-zag); site IDs and addresses can be
//	          negative (clients), so they must never go through uvarint
//	bool    — one byte, 0 or 1
//	string/ — unsigned varint length followed by the raw bytes; a zero
//	bytes     length decodes as empty/nil (presence is carried by explicit
//	          Found flags, not by the encoding)
//
// Timestamps are a uvarint version followed by a varint site. Slices are a
// uvarint element count followed by the elements. Decode rejects trailing
// bytes, so encode→decode→encode is a byte-level fixpoint — the property
// FuzzWireRoundTrip pins down.
func Append(dst []byte, payload any, st Stamp) ([]byte, error) {
	dst = append(dst, Version)
	switch m := payload.(type) {
	case VersionReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagVersionReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendString(dst, m.Key)
		dst = appendBool(dst, m.ForWrite)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case VersionResp:
		dst = append(dst, byte(TagVersionResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendString(dst, m.Key)
		dst = appendTS(dst, m.TS)
		dst = appendBool(dst, m.Found)
		dst = appendBool(dst, m.Refused)
	case ReadReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagReadReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendString(dst, m.Key)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
		dst = appendTS(dst, m.Floor)
	case ReadResp:
		dst = append(dst, byte(TagReadResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendString(dst, m.Key)
		dst = appendBytes(dst, m.Value)
		dst = appendTS(dst, m.TS)
		dst = appendBool(dst, m.Found)
		dst = appendBool(dst, m.Refused)
	case PrepareReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagPrepareReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
		dst = appendString(dst, m.Key)
		dst = appendTS(dst, m.TS)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case PrepareResp:
		dst = append(dst, byte(TagPrepareResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
		dst = appendBool(dst, m.OK)
		dst = appendString(dst, m.Reason)
	case CommitReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagCommitReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
		dst = appendString(dst, m.Key)
		dst = appendBytes(dst, m.Value)
		dst = appendTS(dst, m.TS)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case CommitResp:
		dst = append(dst, byte(TagCommitResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
		dst = appendBool(dst, m.OK)
	case AbortReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagAbortReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
		dst = appendString(dst, m.Key)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case AbortResp:
		dst = append(dst, byte(TagAbortResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.TxID)
	case PingReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagPingReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case PingResp:
		dst = append(dst, byte(TagPingResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendVarint(dst, int64(m.Site))
	case OverloadedResp:
		dst = append(dst, byte(TagOverloadedResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, m.RetryAfterMillis)
	case SyncDigestReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagSyncDigestReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendString(dst, m.StartAfter)
		dst = binary.AppendVarint(dst, int64(m.Limit))
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case SyncDigestResp:
		dst = append(dst, byte(TagSyncDigestResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			dst = appendString(dst, e.Key)
			dst = appendTS(dst, e.TS)
		}
		dst = appendBool(dst, m.More)
	case SyncFetchReq:
		st.apply(&m.ReqID, &m.DeadlineMillis)
		dst = append(dst, byte(TagSyncFetchReq))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, uint64(len(m.Keys)))
		for _, k := range m.Keys {
			dst = appendString(dst, k)
		}
		dst = binary.AppendUvarint(dst, m.DeadlineMillis)
	case SyncFetchResp:
		dst = append(dst, byte(TagSyncFetchResp))
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, uint64(len(m.Items)))
		for _, it := range m.Items {
			dst = appendString(dst, it.Key)
			dst = appendBytes(dst, it.Value)
			dst = appendTS(dst, it.TS)
			dst = appendBool(dst, it.Found)
		}
	default:
		return nil, errNotMessage
	}
	return dst, nil
}

// Decode parses one encoded message of the current Version and returns it
// boxed, for a consumer that keeps it: Msg.Decode, then Box, which owns the
// key — one allocation more for the box.
func Decode(data []byte) (any, error) {
	var m Msg
	if err := m.Decode(data); err != nil {
		return nil, err
	}
	return m.Box(), nil
}

// Decode parses one encoded message of the current Version into m, for a
// handler the holder is lent to: m.Tag names the message and the field of
// that name holds it, whole; other fields keep what they held, and on error
// m holds nothing. It is the package's one decoder. A Key is a view of data,
// which the TCP read loop overwrites after the handler call, so whatever
// keeps one past the call clones it (Msg.Own, Msg.Borrowed). Every other
// string and every byte slice is a fresh allocation a consumer may keep:
// replicas store decoded values as they are, each an allocation of exactly
// its size.
func (m *Msg) Decode(data []byte) error {
	m.Tag, m.view = 0, true
	if len(data) < 2 {
		return errors.New("wire: short message")
	}
	if data[0] != Version {
		return fmt.Errorf("wire: version %d, want %d", data[0], Version)
	}
	tag := Tag(data[1])
	r := reader{buf: data[2:]}
	switch tag {
	case TagVersionReq:
		m.VersionReq = VersionReq{ReqID: r.uvarint(), Key: r.key(), ForWrite: r.bool(), DeadlineMillis: r.uvarint()}
	case TagVersionResp:
		m.VersionResp = VersionResp{ReqID: r.uvarint(), Key: r.key(), TS: r.ts(), Found: r.bool(), Refused: r.bool()}
	case TagReadReq:
		m.ReadReq = ReadReq{ReqID: r.uvarint(), Key: r.key(), DeadlineMillis: r.uvarint(), Floor: r.ts()}
	case TagReadResp:
		m.ReadResp = ReadResp{ReqID: r.uvarint(), Key: r.key(), Value: r.bytes(), TS: r.ts(), Found: r.bool(), Refused: r.bool()}
	case TagPrepareReq:
		m.PrepareReq = PrepareReq{ReqID: r.uvarint(), TxID: r.uvarint(), Key: r.key(), TS: r.ts(), DeadlineMillis: r.uvarint()}
	case TagPrepareResp:
		m.PrepareResp = PrepareResp{ReqID: r.uvarint(), TxID: r.uvarint(), OK: r.bool(), Reason: r.str()}
	case TagCommitReq:
		m.CommitReq = CommitReq{ReqID: r.uvarint(), TxID: r.uvarint(), Key: r.key(), Value: r.bytes(), TS: r.ts(), DeadlineMillis: r.uvarint()}
	case TagCommitResp:
		m.CommitResp = CommitResp{ReqID: r.uvarint(), TxID: r.uvarint(), OK: r.bool()}
	case TagAbortReq:
		m.AbortReq = AbortReq{ReqID: r.uvarint(), TxID: r.uvarint(), Key: r.key(), DeadlineMillis: r.uvarint()}
	case TagAbortResp:
		m.AbortResp = AbortResp{ReqID: r.uvarint(), TxID: r.uvarint()}
	case TagPingReq:
		m.PingReq = PingReq{ReqID: r.uvarint(), DeadlineMillis: r.uvarint()}
	case TagPingResp:
		m.PingResp = PingResp{ReqID: r.uvarint(), Site: int(r.varint())}
	case TagOverloadedResp:
		m.OverloadedResp = OverloadedResp{ReqID: r.uvarint(), RetryAfterMillis: r.uvarint()}
	case TagSyncDigestReq:
		m.SyncDigestReq = SyncDigestReq{ReqID: r.uvarint(), StartAfter: r.str(), Limit: int(r.varint()), DeadlineMillis: r.uvarint()}
	case TagSyncDigestResp:
		d := SyncDigestResp{ReqID: r.uvarint()}
		if n := r.count(); n > 0 {
			d.Entries = make([]DigestEntry, n)
			for i := range d.Entries {
				d.Entries[i] = DigestEntry{Key: r.str(), TS: r.ts()}
			}
		}
		d.More = r.bool()
		m.SyncDigestResp = d
	case TagSyncFetchReq:
		f := SyncFetchReq{ReqID: r.uvarint()}
		if n := r.count(); n > 0 {
			f.Keys = make([]string, n)
			for i := range f.Keys {
				f.Keys[i] = r.str()
			}
		}
		f.DeadlineMillis = r.uvarint()
		m.SyncFetchReq = f
	case TagSyncFetchResp:
		f := SyncFetchResp{ReqID: r.uvarint()}
		if n := r.count(); n > 0 {
			f.Items = make([]SyncItem, n)
			for i := range f.Items {
				f.Items[i] = SyncItem{Key: r.str(), Value: r.bytes(), TS: r.ts(), Found: r.bool()}
			}
		}
		m.SyncFetchResp = f
	default:
		return fmt.Errorf("wire: unknown message tag %d", tag)
	}
	if r.err != nil {
		return fmt.Errorf("wire: decode tag %d: %w", tag, r.err)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: decode tag %d: %d trailing bytes", tag, len(r.buf))
	}
	m.Tag = tag
	return nil
}

// Append helpers.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendTS(dst []byte, ts Timestamp) []byte {
	dst = binary.AppendUvarint(dst, ts.Version)
	return binary.AppendVarint(dst, int64(ts.Site))
}

// reader is a bounds-checked decode cursor. The first malformed field
// poisons it; callers check err once at the end.
type reader struct {
	buf []byte
	err error
}

var (
	errTruncated = errors.New("truncated field")
	errBadBool   = errors.New("bad bool byte")
)

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a slice length, bounded by the bytes that remain (each
// element costs at least one byte), so a corrupt length cannot demand an
// absurd allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)) {
		r.err = errTruncated
		return 0
	}
	return int(n)
}

// field takes the next length-prefixed field off buf, as a view of it.
func (r *reader) field() []byte {
	n := r.count()
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) str() string { return string(r.field()) }

// key is str for a message's Key, but a view of buf: no copy, and valid only
// as long as buf is.
func (r *reader) key() string {
	b := r.field()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// bytes copies the field out, so the decoded message never aliases the
// input buffer; a zero length decodes as nil. Clone appends to nil, which
// does not clear what it is about to overwrite (make+copy does), then clip.
func (r *reader) bytes() []byte {
	b := r.field()
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)[:len(b):len(b)]
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.err = errTruncated
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	if b > 1 {
		r.err = errBadBool
		return false
	}
	return b == 1
}

func (r *reader) ts() Timestamp {
	return Timestamp{Version: r.uvarint(), Site: int(r.varint())}
}
