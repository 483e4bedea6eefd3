package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Key: "k", Value: []byte("v"), TS: Timestamp{Version: 3, Site: -2}},
		{Key: "", Value: nil, TS: Timestamp{}},
		{Key: "big", Value: bytes.Repeat([]byte{7}, 1000), TS: Timestamp{Version: 1 << 50, Site: 99}},
	}
	for _, rec := range recs {
		enc := AppendRecord(nil, rec)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("%q: %v", rec.Key, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%q: got %#v, want %#v", rec.Key, got, rec)
		}
		if !bytes.Equal(AppendRecord(nil, got), enc) {
			t.Errorf("%q: record encoding is not a fixpoint", rec.Key)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	enc := AppendRecord(nil, Record{Key: "k", Value: []byte("v")})
	if _, err := DecodeRecord([]byte{0x01, 0x02}); err != ErrNotRecord {
		t.Errorf("no magic: err = %v, want ErrNotRecord", err)
	}
	if _, err := DecodeRecord(nil); err != ErrNotRecord {
		t.Errorf("empty: err = %v, want ErrNotRecord", err)
	}
	if _, err := DecodeRecord([]byte{RecordMagic, recordVersion + 1}); err == nil {
		t.Error("future version accepted")
	}
	if _, err := DecodeRecord(enc[:len(enc)-1]); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := DecodeRecord(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestMagicBytesCannotStartGob pins the load-bearing fact behind the
// one-byte format sniff: a gob stream's first byte is a single-byte segment
// length (≤ 0x7F) or a multi-byte length marker (≥ 0xF8), so the record
// magic in between is unambiguous.
func TestMagicBytesCannotStartGob(t *testing.T) {
	if RecordMagic <= 0x7F || RecordMagic >= 0xF8 {
		t.Errorf("magic 0x%02X is inside gob's first-byte range", RecordMagic)
	}
}

func TestAppendFramedRecord(t *testing.T) {
	rec := Record{Key: "k", Value: []byte("vv"), TS: Timestamp{Version: 1, Site: 2}}
	framed := AppendFramedRecord(nil, rec)
	n := binary.BigEndian.Uint32(framed[:4])
	if int(n) != len(framed)-4 {
		t.Fatalf("frame length %d, body %d", n, len(framed)-4)
	}
	got, err := DecodeRecord(framed[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("got %#v, want %#v", got, rec)
	}
}
