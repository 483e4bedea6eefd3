package wire

import "testing"

// The encode/decode benchmarks time the encoding on the two hot messages of
// the request path: the read probe and the commit.
// go test -bench=Codec -benchmem ./internal/wire/

func benchMessages() (ReadResp, CommitReq) {
	value := make([]byte, 128)
	for i := range value {
		value[i] = byte(i)
	}
	read := ReadResp{ReqID: 123456, Key: "user/profile/42", Value: value, TS: Timestamp{Version: 987, Site: -3}, Found: true}
	commit := CommitReq{ReqID: 123457, TxID: 42, Key: "user/profile/42", Value: value, TS: Timestamp{Version: 988, Site: -3}}
	return read, commit
}

func BenchmarkCodecEncodeBinary(b *testing.B) {
	read, commit := benchMessages()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Append(buf[:0], read, Stamp{})
		if err != nil {
			b.Fatal(err)
		}
		buf, err = Append(buf[:0], commit, Stamp{ReqID: 123457, DeadlineMillis: 250})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeBinary(b *testing.B) {
	read, commit := benchMessages()
	encRead, err := Append(nil, read, Stamp{})
	if err != nil {
		b.Fatal(err)
	}
	encCommit, err := Append(nil, commit, Stamp{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(encRead); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(encCommit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeReadResp16K times the decode of a large-value read reply:
// one allocation and one copy of the value, nothing cleared first.
func BenchmarkDecodeReadResp16K(b *testing.B) {
	enc, err := Append(nil, ReadResp{ReqID: 123456, Key: "user/profile/42", Value: make([]byte, 16<<10), TS: Timestamp{Version: 987, Site: -3}, Found: true}, Stamp{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
