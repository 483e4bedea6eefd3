package wire

import (
	"reflect"
	"testing"
)

// TestHolderReuseLeaksNothing: one holder decodes a ReadResp carrying a
// value, a CommitResp, then a ReadResp without one, and each boxes exactly
// itself — nothing of the first read shows through the second.
func TestHolderReuseLeaksNothing(t *testing.T) {
	ts := Timestamp{Version: 4, Site: -1}
	var m Msg
	for _, msg := range []any{
		ReadResp{ReqID: 1, Key: "k", Value: []byte("v"), TS: ts, Found: true},
		CommitResp{ReqID: 2, TxID: 9, OK: true},
		ReadResp{ReqID: 3, Key: "k", TS: ts, Found: true},
	} {
		enc, err := Append(nil, msg, Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Decode(enc); err != nil {
			t.Fatal(err)
		}
		if got := m.Box(); !reflect.DeepEqual(got, msg) {
			t.Errorf("holder boxes %#v, want %#v", got, msg)
		}
		if r := (Msg{Reply: m.Reply}); !reflect.DeepEqual(r.Box(), msg) {
			t.Errorf("a holder of its Reply boxes %#v, want %#v", r.Box(), msg)
		}
	}
	if err := m.Decode([]byte{Version, 0}); err == nil || m.Box() != nil {
		t.Errorf("a failed decode left the holder holding %#v (err %v)", m.Box(), err)
	}
}

// TestHolderDecodeAllocs: decoding into a holder allocates exactly the
// message's non-empty string and byte fields — no box, no copy of the
// message. (Keys are longer than one byte: Go interns one-byte strings.)
func TestHolderDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		msg   any
		wants float64
	}{
		{CommitResp{ReqID: 1, TxID: 2, OK: true}, 0},
		{ReadReq{ReqID: 1, Key: "user/42", DeadlineMillis: 40}, 1},
		{ReadResp{ReqID: 1, Key: "user/42", Value: []byte("value"), Found: true}, 2},
	} {
		enc, err := Append(nil, tc.msg, Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		var m Msg
		allocs := testing.AllocsPerRun(1000, func() {
			if err := m.Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.wants {
			t.Errorf("decoding %T into a holder: %.1f allocations, want %.0f", tc.msg, allocs, tc.wants)
		}
	}
}

// TestHolderSetBoxesEveryVector: every message, set into a holder from its
// box, boxes back equal, and the request ID of an answer to an rpc request,
// and only of one, is read off its Reply.
func TestHolderSetBoxesEveryVector(t *testing.T) {
	var m Msg
	for _, v := range vectors() {
		if err := m.Set(v.msg); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got := m.Box(); !reflect.DeepEqual(got, v.msg) {
			t.Errorf("%s: boxes %#v", v.name, got)
		}
		want, isReply := uint64(0), false
		switch v.msg.(type) {
		case VersionResp, ReadResp, PrepareResp, CommitResp, AbortResp, PingResp, OverloadedResp:
			want, isReply = reflect.ValueOf(v.msg).FieldByName("ReqID").Uint(), true
		}
		if id, ok := m.ReqID(); id != want || ok != isReply {
			t.Errorf("%s: ReqID = %d %v, want %d %v", v.name, id, ok, want, isReply)
		}
	}
	if err := m.Set(struct{}{}); err == nil || m.Box() != nil {
		t.Error("a payload outside the message set was held")
	}
}
