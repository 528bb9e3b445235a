package cosim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/flit"
)

// validFrames is the set of well-formed example frames shared by the
// unit tests and the fuzz seed corpus: one per op, plus variants that
// exercise optional fields.
func validFrames() []string {
	return []string{
		`{"v":2,"id":1,"op":"open-session","width":4,"height":4,"model":"dozznoc"}`,
		`{"v":2,"id":2,"op":"open-session","width":8,"height":2,"model":"baseline","link_ticks":2}`,
		`{"v":2,"id":3,"op":"transfer","session":"s1","src":0,"dst":5,"bytes":256}`,
		`{"v":2,"id":4,"op":"transfer","session":"s1","src":3,"dst":0,"bytes":8,"at":1000}`,
		`{"v":2,"id":5,"op":"advance","session":"s1","ticks":5000}`,
		`{"v":2,"id":6,"op":"query","session":"s1"}`,
		`{"v":2,"id":7,"op":"close-session","session":"s1"}`,
	}
}

func TestDecodeFrameAcceptsValid(t *testing.T) {
	for _, line := range validFrames() {
		req, err := DecodeFrame([]byte(line))
		if err != nil {
			t.Fatalf("valid frame rejected (%s): %v", line, err)
		}
		if req.Op == "" {
			t.Fatalf("decoded frame lost its op: %s", line)
		}
	}
	// Trailing newline variants are tolerated.
	if _, err := DecodeFrame([]byte(validFrames()[0] + "\r\n")); err != nil {
		t.Fatalf("CRLF frame rejected: %v", err)
	}
}

func TestDecodeFrameRejections(t *testing.T) {
	cases := []struct {
		line string
		code string
	}{
		{"", CodeEmpty},
		{"   \t ", CodeEmpty},
		{"{", CodeBadJSON},
		{`[1,2,3]`, CodeBadJSON},
		{`"just a string"`, CodeBadJSON},
		{`{"v":2,"id":1,"op":"query","session":"s1"}{"v":2}`, CodeBadJSON},
		{`{"v":2,"id":1,"op":"query","session":"s1","extra":true}`, CodeBadJSON},
		{`{"v":2,"id":1,"op":"transfer","session":"s1","src":"zero","dst":1,"bytes":64}`, CodeBadJSON},
		{`{"v":1,"id":1,"op":"query","session":"s1"}`, CodeBadVersion},
		{`{"id":1,"op":"query","session":"s1"}`, CodeBadVersion},
		{`{"v":2,"id":1}`, CodeBadOp},
		{`{"v":2,"id":1,"op":"shutdown"}`, CodeBadOp},
		{`{"v":2,"id":1,"op":"open-session","width":0,"height":4,"model":"pg"}`, CodeBadField},
		{`{"v":2,"id":1,"op":"open-session","width":4,"height":4}`, CodeBadField},
		{`{"v":2,"id":1,"op":"open-session","width":65,"height":4,"model":"pg"}`, CodeBadField},
		{`{"v":2,"id":1,"op":"open-session","width":4,"height":4,"model":"pg","session":"s1"}`, CodeBadField},
		{`{"v":2,"id":1,"op":"transfer","session":"s1","src":0,"dst":5}`, CodeBadField},
		{`{"v":2,"id":1,"op":"transfer","session":"s1","src":0,"dst":5,"bytes":0}`, CodeBadField},
		{`{"v":2,"id":1,"op":"transfer","session":"s1","src":-1,"dst":5,"bytes":64}`, CodeBadField},
		{`{"v":2,"id":1,"op":"transfer","session":"s1","src":0,"dst":5,"bytes":2097152}`, CodeBadField},
		{`{"v":2,"id":1,"op":"transfer","src":0,"dst":5,"bytes":64}`, CodeBadField},
		{`{"v":2,"id":1,"op":"advance","session":"s1"}`, CodeBadField},
		{`{"v":2,"id":1,"op":"advance","session":"s1","ticks":0}`, CodeBadField},
		{`{"v":2,"id":1,"op":"advance","session":"s1","ticks":5,"bytes":64}`, CodeBadField},
		{`{"v":2,"id":1,"op":"query","session":"s1","ticks":5}`, CodeBadField},
		{`{"v":2,"id":1,"op":"query","session":"s1","model":"pg"}`, CodeBadField},
		{strings.Repeat("x", MaxFrameBytes+1), CodeTooLarge},
	}
	for _, tc := range cases {
		req, err := DecodeFrame([]byte(tc.line))
		if err == nil {
			t.Fatalf("accepted %.80q as %+v", tc.line, req)
		}
		if err.Code != tc.code {
			t.Fatalf("%.80q: code %s, want %s (%s)", tc.line, err.Code, tc.code, err.Msg)
		}
		if !strings.Contains(err.Error(), err.Code) {
			t.Fatalf("Error() %q does not carry the code", err.Error())
		}
	}
}

// TestDecodeFrameRejectsShardKey pins the v2 decision on the removed
// open-session "shards" field: it is rejected, not accepted and ignored,
// whatever its value, through the decoder's unknown-key path.
func TestDecodeFrameRejectsShardKey(t *testing.T) {
	for _, shards := range []string{"0", "1", "4"} {
		line := `{"v":2,"id":1,"op":"open-session","width":4,"height":4,"model":"dozznoc","shards":` + shards + `}`
		req, err := DecodeFrame([]byte(line))
		if err == nil {
			t.Fatalf("accepted %s as %+v", line, req)
		}
		if err.Code != CodeBadJSON || !strings.Contains(err.Msg, "shards") {
			t.Fatalf("%s: got %s (%s), want %s naming the field", line, err.Code, err.Msg, CodeBadJSON)
		}
	}
}

func TestExpandTransfer(t *testing.T) {
	cases := []struct {
		bytes   int64
		packets int
		kind    flit.Kind
	}{
		{1, 1, flit.Request},
		{8, 1, flit.Request},
		{9, 1, flit.Response},
		{64, 1, flit.Response},
		{65, 2, flit.Response},
		{256, 4, flit.Response},
		{MaxTransferBytes, MaxTransferBytes / LineBytes, flit.Response},
	}
	for _, tc := range cases {
		got := ExpandTransfer(2, 7, tc.bytes, 100)
		if len(got) != tc.packets {
			t.Fatalf("bytes=%d: %d packets, want %d", tc.bytes, len(got), tc.packets)
		}
		for _, en := range got {
			if en.Kind != tc.kind || en.Time != 100 || en.Src != 2 || en.Dst != 7 {
				t.Fatalf("bytes=%d: bad entry %+v", tc.bytes, en)
			}
		}
	}
}

// FuzzDecodeFrame is the protocol lockdown: whatever bytes arrive on
// the wire, DecodeFrame must return a typed *ProtoError or a valid
// request — never panic, never hang, never accept a frame that fails
// its own validation on a re-encode round trip.
func FuzzDecodeFrame(f *testing.F) {
	for _, line := range validFrames() {
		f.Add([]byte(line))
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"v":2,"id":1,"op":"transfer","session":"s1","src":"zero","dst":1,"bytes":64}`))
	f.Add([]byte(`{"v":9,"op":"open-session"}`))
	f.Add([]byte(`{"v":2,"id":1,"op":"query","session":"s1"}{"v":2}`))
	f.Add(bytes.Repeat([]byte("a"), MaxFrameBytes+1))
	f.Add([]byte(`{"v":2,"id":9007199254740993,"op":"advance","session":"s1","ticks":-1}`))
	f.Add([]byte("{\"v\":1,\"id\":1,\"op\":\"query\",\"session\":\"\xff\xfe\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeFrame(data)
		if err != nil {
			if req != nil {
				t.Fatal("request returned alongside an error")
			}
			if err.Code == "" || err.Error() == "" {
				t.Fatalf("untyped protocol error: %+v", err)
			}
			return
		}
		if req == nil {
			t.Fatal("nil request with nil error")
		}
		// An accepted frame is internally consistent: it re-encodes and
		// re-decodes to an equally valid request with the same op.
		b, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("accepted frame does not re-encode: %v", merr)
		}
		again, err2 := DecodeFrame(b)
		if err2 != nil {
			t.Fatalf("re-encoded frame rejected: %v (from %.120q)", err2, data)
		}
		if again.Op != req.Op {
			t.Fatalf("op changed across round trip: %q vs %q", again.Op, req.Op)
		}
	})
}
