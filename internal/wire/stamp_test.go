package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// randomStamp draws a stamp whose fields are each zero a third of the time,
// so the leave-as-is rule is exercised beside the overwrite.
func randomStamp(rng *rand.Rand) Stamp {
	field := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(300))
		default:
			return rng.Uint64()
		}
	}
	return Stamp{ReqID: field(), DeadlineMillis: field()}
}

// wantStamped is what a stamp must make of msg, worked out field by field
// through reflection rather than through either stamping switch: the nonzero
// fields of st overwrite a request's ReqID and DeadlineMillis, and a
// response is left alone.
func wantStamped(msg any, st Stamp) any {
	v := reflect.New(reflect.TypeOf(msg)).Elem()
	v.Set(reflect.ValueOf(msg))
	if _, ok := msg.(Request); ok {
		if st.ReqID != 0 {
			v.FieldByName("ReqID").SetUint(st.ReqID)
		}
		if st.DeadlineMillis != 0 {
			v.FieldByName("DeadlineMillis").SetUint(st.DeadlineMillis)
		}
	}
	return v.Interface()
}

// TestStampPathsAgree: for every vector and random stamps, the frame Append
// writes with a stamp is byte for byte the frame of the copy Stamped makes,
// and both decode to the value the stamp defines. The two stamping switches
// (Append's, for TCP, and the holder's, which Stamped fills for every other
// Conn) cannot disagree.
func TestStampPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, v := range vectors() {
		for i := 0; i < 50; i++ {
			st := randomStamp(rng)
			want := wantStamped(v.msg, st)
			cp, err := Stamped(v.msg, st)
			if err != nil {
				t.Fatalf("%s: Stamped: %v", v.name, err)
			}
			if !reflect.DeepEqual(cp, want) {
				t.Fatalf("%s %+v: Stamped = %#v, want %#v", v.name, st, cp, want)
			}
			inPlace, err := Append(nil, v.msg, st)
			if err != nil {
				t.Fatalf("%s: Append: %v", v.name, err)
			}
			ofCopy, err := Append(nil, cp, Stamp{})
			if err != nil {
				t.Fatalf("%s: Append of the copy: %v", v.name, err)
			}
			if !bytes.Equal(inPlace, ofCopy) {
				t.Fatalf("%s %+v: stamped in place %x, copy encodes %x", v.name, st, inPlace, ofCopy)
			}
			dec, err := Decode(inPlace)
			if err != nil {
				t.Fatalf("%s: decode: %v", v.name, err)
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("%s %+v: decodes to %#v, want %#v", v.name, st, dec, want)
			}
		}
	}
}

// appendAllocs measures Append of m with a stamp, m boxed afresh on every
// call the way a sender boxes a literal: it reads zero only if Append
// allocates nothing and its payload does not escape, so the box lives on
// the caller's stack.
func appendAllocs[T any](m T) float64 {
	buf := make([]byte, 0, 1<<10)
	st := Stamp{ReqID: 1 << 40, DeadlineMillis: 250}
	return testing.AllocsPerRun(100, func() { buf, _ = Append(buf[:0], m, st) })
}

// TestAppendAllocatesNothing guards the escape analysis the TCP send path
// rests on: a change that lets Append retain or format its payload makes
// every reply and every stamped request a heap object again.
func TestAppendAllocatesNothing(t *testing.T) {
	for _, v := range vectors() {
		var n float64
		switch m := v.msg.(type) {
		case VersionReq:
			n = appendAllocs(m)
		case VersionResp:
			n = appendAllocs(m)
		case ReadReq:
			n = appendAllocs(m)
		case ReadResp:
			n = appendAllocs(m)
		case PrepareReq:
			n = appendAllocs(m)
		case PrepareResp:
			n = appendAllocs(m)
		case CommitReq:
			n = appendAllocs(m)
		case CommitResp:
			n = appendAllocs(m)
		case AbortReq:
			n = appendAllocs(m)
		case AbortResp:
			n = appendAllocs(m)
		case PingReq:
			n = appendAllocs(m)
		case PingResp:
			n = appendAllocs(m)
		case OverloadedResp:
			n = appendAllocs(m)
		case SyncDigestReq:
			n = appendAllocs(m)
		case SyncDigestResp:
			n = appendAllocs(m)
		case SyncFetchReq:
			n = appendAllocs(m)
		case SyncFetchResp:
			n = appendAllocs(m)
		default:
			t.Fatalf("%s: no allocation case for %T", v.name, v.msg)
		}
		if n != 0 {
			t.Errorf("%s: Append with a stamp allocates %.1f times per call, want 0", v.name, n)
		}
	}
}
