package cosim

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the transcript after an intentional wire-format change:
//
//	go test ./internal/cosim -run TestGoldenTranscript -update
var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// transcriptScript is the committed protocol conversation: every op,
// both transfer shapes, an advance whose energy deltas hit the wire,
// and the error replies (decode failure, unknown session) — the frames
// whose byte-level stability the golden file pins. Requests carry
// explicit ids so the transcript is self-describing.
var transcriptScript = []string{
	`{"v":2,"id":1,"op":"open-session","width":3,"height":3,"model":"dozznoc","link_ticks":1}`,
	`{"v":2,"id":2,"op":"transfer","session":"s1","src":0,"dst":8,"bytes":8}`,
	`{"v":2,"id":3,"op":"transfer","session":"s1","src":4,"dst":2,"bytes":256,"at":100}`,
	`{"v":2,"id":4,"op":"advance","session":"s1","ticks":1000}`,
	`{"v":2,"id":5,"op":"query","session":"s1"}`,
	`{"v":2,"id":6,"op":"totally-not-an-op"}`,
	`{"v":2,"id":7,"op":"query","session":"s99"}`,
	`not json at all`,
	`{"v":2,"id":9,"op":"advance","session":"s1","ticks":4000}`,
	`{"v":2,"id":10,"op":"close-session","session":"s1"}`,
}

// TestGoldenTranscript replays the scripted conversation against a
// fresh daemon and compares the full request/response transcript
// byte-for-byte with testdata/golden/cosim-session.golden. Everything
// in the replies is deterministic — session ids count from 1 per
// daemon, the engine is deterministic, and float64 energy values render
// via Go's shortest round-trip encoding.
func TestGoldenTranscript(t *testing.T) {
	d := NewDaemon(Options{})
	defer d.Close()
	cc, sc := net.Pipe()
	go d.ServeConn(sc, sc) //nolint:errcheck — pipe closes below
	defer cc.Close()

	var out bytes.Buffer
	br := make([]byte, 0, MaxFrameBytes)
	for _, req := range transcriptScript {
		out.WriteString("> " + req + "\n")
		if _, err := cc.Write([]byte(req + "\n")); err != nil {
			t.Fatalf("write %q: %v", req, err)
		}
		line, err := readLine(cc, br)
		if err != nil {
			t.Fatalf("reply to %q: %v", req, err)
		}
		out.WriteString("< " + strings.TrimSuffix(line, "\n") + "\n")
	}

	path := filepath.Join("testdata", "golden", "cosim-session.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, out.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("transcript differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}

// readLine reads one LF-terminated reply from the connection one byte
// at a time (replies are small; net.Pipe has no buffering to exploit).
func readLine(c net.Conn, scratch []byte) (string, error) {
	scratch = scratch[:0]
	buf := make([]byte, 1)
	for {
		if _, err := c.Read(buf); err != nil {
			return "", err
		}
		scratch = append(scratch, buf[0])
		if buf[0] == '\n' {
			return string(scratch), nil
		}
	}
}
