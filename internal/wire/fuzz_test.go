package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip drives fuzzed field values through every message shape
// and checks the encoding's core property: encode→decode→encode is a
// byte-level fixpoint and the decoded message equals the original. Every
// message is decoded into one holder, reused as a read loop reuses its own,
// so what one message leaves in it must not show through the next.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(-3), "key", []byte("value"), true, false)
	f.Add(uint64(0), uint64(0), int64(0), "", []byte(nil), false, false)
	f.Add(^uint64(0), uint64(1)<<60, int64(-1)<<40, "λ/с/日", bytes.Repeat([]byte{0xFF}, 300), true, true)
	f.Fuzz(func(t *testing.T, id, tx uint64, site int64, key string, value []byte, b1, b2 bool) {
		ts := Timestamp{Version: tx, Site: int(site)}
		// tx doubles as the fuzzed deadline so the millis-remaining field
		// sees the full uint64 range without widening the seed signature;
		// ts doubles as the read's floor for the same reason.
		msgs := []any{
			VersionReq{ReqID: id, Key: key, ForWrite: b1, DeadlineMillis: tx},
			VersionResp{ReqID: id, Key: key, TS: ts, Found: b1, Refused: b2},
			ReadReq{ReqID: id, Key: key, DeadlineMillis: tx, Floor: ts},
			ReadResp{ReqID: id, Key: key, Value: value, TS: ts, Found: b1, Refused: b2},
			PrepareReq{ReqID: id, TxID: tx, Key: key, TS: ts, DeadlineMillis: tx},
			PrepareResp{ReqID: id, TxID: tx, OK: b1, Reason: key},
			CommitReq{ReqID: id, TxID: tx, Key: key, Value: value, TS: ts, DeadlineMillis: tx},
			CommitResp{ReqID: id, TxID: tx, OK: b2},
			AbortReq{ReqID: id, TxID: tx, Key: key, DeadlineMillis: tx},
			AbortResp{ReqID: id, TxID: tx},
			SyncDigestReq{ReqID: id, StartAfter: key, Limit: int(site), DeadlineMillis: tx},
			SyncDigestResp{ReqID: id, Entries: []DigestEntry{{Key: key, TS: ts}}, More: b1},
			SyncFetchReq{ReqID: id, Keys: []string{key, "second"}, DeadlineMillis: tx},
			SyncFetchResp{ReqID: id, Items: []SyncItem{{Key: key, Value: value, TS: ts, Found: b1}}},
			PingReq{ReqID: id, DeadlineMillis: tx},
			PingResp{ReqID: id, Site: int(site)},
			OverloadedResp{ReqID: id, RetryAfterMillis: tx},
		}
		var held Msg
		for _, msg := range msgs {
			enc, err := Append(nil, msg, Stamp{})
			if err != nil {
				t.Fatalf("encode %T: %v", msg, err)
			}
			if err := held.Decode(enc); err != nil {
				t.Fatalf("decode %T: %v (bytes %x)", msg, err, enc)
			}
			dec := held.Box()
			// nil and empty byte slices both decode as nil; normalize the
			// expectation for the equality check.
			want := msg
			if len(value) == 0 {
				switch m := want.(type) {
				case ReadResp:
					m.Value = nil
					want = m
				case CommitReq:
					m.Value = nil
					want = m
				case SyncFetchResp:
					m.Items[0].Value = nil
					want = m
				}
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("round trip %T:\n got %#v\nwant %#v", msg, dec, want)
			}
			enc2, err := Append(nil, dec, Stamp{})
			if err != nil {
				t.Fatalf("re-encode %T: %v", msg, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%T not a fixpoint:\n %x\n %x", msg, enc, enc2)
			}
		}
	})
}

// FuzzBinaryDecode throws raw bytes at the decoder: it must reject or
// decode, never panic or over-allocate, and anything it accepts must
// re-encode to exactly the input (the decoder admits no non-canonical
// encodings beyond varint slack, which re-encoding canonicalizes — assert
// only on a second round trip).
func FuzzBinaryDecode(f *testing.F) {
	for _, v := range vectors() {
		enc, err := Append(nil, v.msg, Stamp{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, byte(TagSyncDigestResp), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// The current read_req with a floor, and the same body under the
	// version before it, which the decoder refuses.
	f.Add([]byte{Version, byte(TagReadReq), 1, 1, 'k', 40, 0xAC, 0x02, 3})
	f.Add([]byte{Version - 1, byte(TagReadReq), 1, 1, 'k', 40, 0xAC, 0x02, 3})
	// A read_req cut before its floor.
	f.Add([]byte{Version, byte(TagReadReq), 1, 1, 'k', 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Append(nil, msg, Stamp{})
		if err != nil {
			t.Fatalf("accepted message %#v does not re-encode: %v", msg, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		if !reflect.DeepEqual(dec, msg) {
			t.Fatalf("second round trip diverged:\n got %#v\nwant %#v", dec, msg)
		}
	})
}
