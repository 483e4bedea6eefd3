package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record is one durable store entry — the unit the WAL journals, and of
// which a compacted journal holds one per key. Its binary form is
// self-contained and decodable from any record boundary, the property that
// keeps multi-session journals replayable (a streaming gob encoder re-emits
// type descriptors on reopen and poisons everything after the first
// session).
type Record struct {
	Key   string
	Value []byte
	TS    Timestamp
}

// RecordMagic is the first byte of every binary-encoded record. The value
// is chosen from the range 0x80–0xF7, which can never start a gob stream
// (gob's leading segment length is either a single byte ≤ 0x7F or a
// multi-byte marker ≥ 0xF8), so one peeked byte tells a binary record from
// a legacy gob blob, which replay rejects by name instead of misreading.
const RecordMagic byte = 0xA6

// recordVersion is the record layout version.
const recordVersion byte = 1

// AppendRecord appends the record's binary encoding to dst:
// [magic][version][key][value][timestamp] with the codec's field
// primitives.
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst, RecordMagic, recordVersion)
	dst = appendString(dst, r.Key)
	dst = appendBytes(dst, r.Value)
	return appendTS(dst, r.TS)
}

// ErrNotRecord reports that the buffer does not start with a binary
// record.
var ErrNotRecord = errors.New("wire: not a binary record")

// DecodeRecord parses one binary-encoded record. The returned record never
// aliases data. A buffer that does not begin with RecordMagic fails with
// ErrNotRecord.
func DecodeRecord(data []byte) (Record, error) {
	if len(data) < 2 || data[0] != RecordMagic {
		return Record{}, ErrNotRecord
	}
	if data[1] != recordVersion {
		return Record{}, fmt.Errorf("wire: record version %d, want %d", data[1], recordVersion)
	}
	r := reader{buf: data[2:]}
	rec := Record{Key: r.str(), Value: r.bytes(), TS: r.ts()}
	if r.err != nil {
		return Record{}, fmt.Errorf("wire: decode record: %w", r.err)
	}
	if len(r.buf) != 0 {
		return Record{}, fmt.Errorf("wire: decode record: %d trailing bytes", len(r.buf))
	}
	return rec, nil
}

// MaxRecord bounds one record's encoded size during replay, so a corrupt
// length prefix cannot ask for an absurd allocation.
const MaxRecord = 1 << 24

// AppendFramedRecord appends [length][record] to dst — the WAL's framing:
// a 4-byte big-endian length, then the record.
func AppendFramedRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendRecord(dst, r)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}
