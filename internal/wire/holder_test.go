package wire

import (
	"reflect"
	"testing"
	"unsafe"
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
// message's non-empty byte fields and strings other than its key — no box,
// no copy of the message, no copy of the key, which is a view of the frame.
// (Keys are longer than one byte: Go interns one-byte strings.)
func TestHolderDecodeAllocs(t *testing.T) {
	ts := Timestamp{Version: 3, Site: -1}
	for _, tc := range []struct {
		msg   any
		wants float64
	}{
		{CommitResp{ReqID: 1, TxID: 2, OK: true}, 0},
		{ReadReq{ReqID: 1, Key: "user/42", DeadlineMillis: 40, Floor: ts}, 0},
		{VersionReq{ReqID: 1, Key: "user/42", ForWrite: true, DeadlineMillis: 40}, 0},
		{VersionResp{ReqID: 1, Key: "user/42", TS: ts, Found: true}, 0},
		{PrepareReq{ReqID: 1, TxID: 2, Key: "user/42", TS: ts, DeadlineMillis: 40}, 0},
		{AbortReq{ReqID: 1, TxID: 2, Key: "user/42", DeadlineMillis: 40}, 0},
		{CommitReq{ReqID: 1, TxID: 2, Key: "user/42", Value: []byte("value"), TS: ts}, 1},
		{ReadResp{ReqID: 1, Key: "user/42", Value: []byte("value"), TS: ts, Found: true}, 1},
		{PrepareResp{ReqID: 1, TxID: 2, Reason: "locked"}, 1},
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

// TestDecodedKeysOwnership: a key Msg.Decode fills in is a view of the frame
// (Borrowed) until Own clones it; Box, wire.Decode and Set own theirs. Each
// is checked by scribbling over the frame once the message is taken. Own
// drops the stale fields' keys, views of earlier frames.
func TestDecodedKeysOwnership(t *testing.T) {
	var held Msg
	for _, msg := range append(vectors(), struct {
		name string
		msg  any
	}{"ping last", PingReq{ReqID: 1}}) {
		enc, err := Append(nil, msg.msg, Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		if err := held.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}
	held.Own()
	if k := [...]string{held.VersionReq.Key, held.VersionResp.Key, held.ReadReq.Key, held.ReadResp.Key,
		held.PrepareReq.Key, held.CommitReq.Key, held.AbortReq.Key}; k != [7]string{} {
		t.Errorf("Own left stale fields' keys, views of earlier frames: %q", k)
	}

	for _, v := range vectors() {
		enc, err := Append(nil, v.msg, Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		scribble := func() { clear(enc[2:]) }
		restore := func() {
			if enc, err = Append(enc[:0], v.msg, Stamp{}); err != nil {
				t.Fatal(err)
			}
		}

		var m Msg
		if err := m.Decode(enc); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !m.Borrowed() {
			t.Errorf("%s: a decoded holder does not report its keys borrowed", v.name)
		}
		m.Own()
		scribble()
		if got := m.Box(); m.Borrowed() || !reflect.DeepEqual(got, v.msg) {
			t.Errorf("%s: owned, then the frame overwritten: holds %#v", v.name, got)
		}

		restore()
		if err := m.Decode(enc); err != nil {
			t.Fatal(err)
		}
		boxed := m.Box()
		scribble()
		if !reflect.DeepEqual(boxed, v.msg) {
			t.Errorf("%s: a decoded holder boxed, then the frame overwritten: %#v", v.name, boxed)
		}

		restore()
		if boxed, err = Decode(enc); err != nil {
			t.Fatal(err)
		}
		scribble()
		if !reflect.DeepEqual(boxed, v.msg) {
			t.Errorf("%s: Decode, then the frame overwritten: %#v", v.name, boxed)
		}
		restore()

		if err := m.Decode(enc); err != nil {
			t.Fatal(err)
		}
		if err := m.Set(v.msg); err != nil || m.Borrowed() {
			t.Errorf("%s: a holder filled by Set reports its keys borrowed (err %v)", v.name, err)
		}
	}
}

// TestCloneAllocs: cloning a key allocates what decoding it into a fresh
// string did — nothing for one byte, whose string the runtime keeps — so
// an owned one-byte key costs what it cost before keys were views.
func TestCloneAllocs(t *testing.T) {
	for _, tc := range []struct {
		key   string
		wants float64
	}{{"k", 0}, {"user/42", 1}} {
		frame := []byte(tc.key)
		view := unsafe.String(&frame[0], len(frame))
		var kept string
		if allocs := testing.AllocsPerRun(100, func() { kept = Clone(view) }); allocs != tc.wants {
			t.Errorf("Clone(%q): %.1f allocations, want %.0f", tc.key, allocs, tc.wants)
		}
		if clear(frame); kept != tc.key {
			t.Errorf("Clone(%q) = %q once the frame is overwritten: not a copy", tc.key, kept)
		}
	}
}
