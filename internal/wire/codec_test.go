package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden wire vectors")

// vectors enumerates one representative value per message type, plus edge
// cases the encoding must pin down: negative sites (clients), empty and nil
// byte fields, multi-byte varints and non-ASCII keys. Adding a message type
// means adding a vector here (and a fuzz seed).
func vectors() []struct {
	name string
	msg  any
} {
	return []struct {
		name string
		msg  any
	}{
		{"version_req", VersionReq{ReqID: 1, Key: "k", ForWrite: true}},
		{"version_resp", VersionResp{ReqID: 2, Key: "k", TS: Timestamp{Version: 7, Site: -3}, Found: true}},
		{"read_req", ReadReq{ReqID: 300, Key: "config/λ"}},
		{"read_resp", ReadResp{ReqID: 4, Key: "k", Value: []byte{0, 1, 0xFF}, TS: Timestamp{Version: 1 << 40, Site: 12}, Found: true}},
		{"read_resp_refused", ReadResp{ReqID: 5, Key: "k", Refused: true}},
		{"prepare_req", PrepareReq{ReqID: 6, TxID: 99, Key: "k", TS: Timestamp{Version: 8, Site: -1}}},
		{"prepare_resp", PrepareResp{ReqID: 7, TxID: 99, OK: false, Reason: "locked"}},
		{"commit_req", CommitReq{ReqID: 8, TxID: 99, Key: "k", Value: []byte("v"), TS: Timestamp{Version: 9, Site: -2}}},
		{"commit_req_empty_value", CommitReq{ReqID: 9, TxID: 100, Key: "k", TS: Timestamp{Version: 1, Site: 1}}},
		{"commit_resp", CommitResp{ReqID: 10, TxID: 99, OK: true}},
		{"abort_req", AbortReq{ReqID: 11, TxID: 99, Key: "k"}},
		{"abort_resp", AbortResp{ReqID: 12, TxID: 99}},
		{"sync_digest_req", SyncDigestReq{ReqID: 13, StartAfter: "m", Limit: 128}},
		{"sync_digest_resp", SyncDigestResp{ReqID: 14, Entries: []DigestEntry{
			{Key: "a", TS: Timestamp{Version: 1, Site: 2}},
			{Key: "b", TS: Timestamp{Version: 2, Site: -9}},
		}, More: true}},
		{"sync_digest_resp_empty", SyncDigestResp{ReqID: 15}},
		{"sync_fetch_req", SyncFetchReq{ReqID: 16, Keys: []string{"a", "", "c"}}},
		{"sync_fetch_resp", SyncFetchResp{ReqID: 17, Items: []SyncItem{
			{Key: "a", Value: []byte("x"), TS: Timestamp{Version: 3, Site: 4}, Found: true},
			{Key: "gone"},
		}}},
		{"ping_req", PingReq{ReqID: 18}},
		{"ping_resp", PingResp{ReqID: 19, Site: -27}},
		{"overloaded_resp", OverloadedResp{ReqID: 20, RetryAfterMillis: 40}},
		{"read_req_deadline", ReadReq{ReqID: 21, Key: "k", DeadlineMillis: 1500}},
		{"prepare_req_deadline", PrepareReq{ReqID: 22, TxID: 101, Key: "k", TS: Timestamp{Version: 3, Site: -4}, DeadlineMillis: 250}},
		{"read_req_floor", ReadReq{ReqID: 23, Key: "k", DeadlineMillis: 40, Floor: Timestamp{Version: 300, Site: -2}}},
	}
}

// TestRoundTrip: every message survives encode→decode, and the binary
// encoding is a byte-level fixpoint.
func TestRoundTrip(t *testing.T) {
	for _, v := range vectors() {
		enc, err := Append(nil, v.msg, Stamp{})
		if err != nil {
			t.Fatalf("%s: encode: %v", v.name, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", v.name, err)
		}
		if !reflect.DeepEqual(dec, v.msg) {
			t.Errorf("%s: round trip\n got %#v\nwant %#v", v.name, dec, v.msg)
		}
		enc2, err := Append(nil, dec, Stamp{})
		if err != nil {
			t.Fatalf("%s: re-encode: %v", v.name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: re-encoding differs:\n %x\n %x", v.name, enc, enc2)
		}
	}
}

// TestGoldenVectors pins the binary wire format byte for byte: a change
// that alters any encoding must bump the codec version and regenerate the
// file with -update, not slide by silently.
func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", fmt.Sprintf("golden_binary_v%d.txt", Version))
	if *update {
		var sb strings.Builder
		for _, v := range vectors() {
			enc, err := Append(nil, v.msg, Stamp{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %s\n", v.name, hex.EncodeToString(enc))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hexEnc, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[name] = hexEnc
	}
	if len(golden) != len(vectors()) {
		t.Errorf("golden file has %d vectors, test has %d (regenerate with -update)", len(golden), len(vectors()))
	}
	for _, v := range vectors() {
		enc, err := Append(nil, v.msg, Stamp{})
		if err != nil {
			t.Fatal(err)
		}
		want, ok := golden[v.name]
		if !ok {
			t.Errorf("%s: no golden vector (regenerate with -update)", v.name)
			continue
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("%s: wire bytes changed\n got %s\nwant %s", v.name, got, want)
		}
		// And the checked-in bytes still decode to the same message.
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(raw)
		if err != nil {
			t.Errorf("%s: golden bytes do not decode: %v", v.name, err)
			continue
		}
		if !reflect.DeepEqual(dec, v.msg) {
			t.Errorf("%s: golden bytes decode to %#v, want %#v", v.name, dec, v.msg)
		}
	}
}

// TestVectorsCoverEveryTag keeps the message set closed: the vectors' tag
// bytes are exactly 1…TagOverloadedResp, and the next tag value does not
// decode. So a message added without a vector fails here, and the tests
// that run every vector — TestRoundTrip, TestGoldenVectors,
// TestStampPathsAgree and the holder tests — reach every message's encode,
// decode, stamping, Set, Box, Own and ReqID case.
func TestVectorsCoverEveryTag(t *testing.T) {
	seen := make(map[Tag]bool)
	for _, v := range vectors() {
		enc, err := Append(nil, v.msg, Stamp{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		seen[Tag(enc[1])] = true
	}
	for tag := Tag(1); tag <= TagOverloadedResp; tag++ {
		if !seen[tag] {
			t.Errorf("tag %d has no vector", tag)
		}
		delete(seen, tag)
	}
	if len(seen) != 0 {
		t.Errorf("vectors encode tags past TagOverloadedResp: %v", seen)
	}
	next := TagOverloadedResp + 1
	if _, err := Decode([]byte{Version, byte(next)}); err == nil || !strings.Contains(err.Error(), "unknown message tag") {
		t.Errorf("tag %d: decode error %v, want an unknown tag; a new last tag needs a vector and this bound", next, err)
	}
}

// TestNoGob: no package of the module reaches encoding/gob. A second
// serialization path is how version skew slipped into the WAL before this
// codec; frames and records go through Append and Decode alone.
func TestNoGob(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "arbor/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, deps, _ := strings.Cut(line, " ")
		if slices.Contains(strings.Fields(deps), "encoding/gob") {
			t.Errorf("%s depends on encoding/gob; encode through wire.Append and wire.Decode", pkg)
		}
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	enc, err := Append(prefix, PingReq{ReqID: 5}, Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc[:2], prefix) {
		t.Errorf("Append did not append: %x", enc)
	}
	if _, err := Decode(enc[2:]); err != nil {
		t.Errorf("appended encoding does not decode: %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	enc, err := Append(nil, ReadResp{ReqID: 1, Key: "k", Value: []byte("v"), Found: true}, Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"version_only":     {Version},
		"bad_version":      append([]byte{Version + 1}, enc[1:]...),
		"older_version":    append([]byte{Version - 1}, enc[1:]...),
		"version_zero":     append([]byte{0}, enc[1:]...),
		"unknown_tag":      {Version, 0},
		"truncated":        enc[:len(enc)-2],
		"trailing_bytes":   append(append([]byte(nil), enc...), 0),
		"bad_bool":         func() []byte { b := append([]byte(nil), enc...); b[len(b)-1] = 7; return b }(),
		"absurd_slice_len": {Version, byte(TagSyncFetchReq), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed input %x", name, data)
		}
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Append(nil, struct{ X int }{1}, Stamp{}); err == nil {
		t.Error("Append encoded a type outside the message set")
	}
	if _, err := Stamped(struct{ X int }{1}, Stamp{ReqID: 1}); err == nil {
		t.Error("Stamped copied a type outside the message set")
	}
}

func TestDecodedValueDoesNotAliasInput(t *testing.T) {
	enc, err := Append(nil, CommitReq{ReqID: 1, Key: "k", Value: []byte("abc"), TS: Timestamp{Version: 1, Site: 1}}, Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if got := string(dec.(CommitReq).Value); got != "abc" {
		t.Errorf("decoded value aliases the input buffer: %q", got)
	}
}

func TestTimestampOrdering(t *testing.T) {
	a := Timestamp{Version: 2, Site: 5}
	if !a.After(Timestamp{Version: 1, Site: 1}) {
		t.Error("higher version must win")
	}
	// Equal versions: the LOWER site wins (§3.2.1).
	if !(Timestamp{Version: 2, Site: 1}).After(a) {
		t.Error("equal versions: lower site must win")
	}
	if a.After(a) {
		t.Error("a timestamp is not after itself")
	}
}
