package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// windowScript drives one scripted event sequence — two runs, coalesced
// and distinct spans, instants, a long early span that
// must age out — into tr. Keeping the script in one place guarantees the
// unbounded and windowed tracers in the tests below see byte-identical
// call sequences.
func windowScript(tr *Tracer) {
	tr.BeginRun("alpha")
	tr.Span("sweep", 0, 500)
	tr.Span("probe", 100, 50)
	tr.Instant("epoch", 500, -1)
	tr.Span("horizon-skip", 500, 4000)
	tr.Instant("catch-up-barrier", 4500, 12)
	tr.Span("sweep-eager", 4500, 200)
	tr.Span("sweep-eager", 4700, 300) // coalesces
	tr.BeginRun("beta")
	tr.Span("sweep", 0, 100)
	tr.Span("probe", 0, 80)
	tr.Instant("epoch", 100, -1)
	tr.Span("horizon-skip", 100, 9000)
	tr.Span("sweep", 9100, 50)
}

// windowTail computes, from an unbounded tracer's output, what a
// retention window of retain ticks must emit: every metadata line once,
// in first-appearance order, then every timestamped event whose end
// (ts, plus dur for spans) falls within retain of the global high-water
// mark, in emission order. This re-derives the retention contract from
// the wire format alone, independent of the Tracer's internals.
func windowTail(t *testing.T, unbounded *bytes.Buffer, retain int64) string {
	t.Helper()
	type ev struct {
		line string
		meta bool
		end  int64
	}
	var (
		evs   []ev
		maxTS int64
	)
	sc := bufio.NewScanner(bytes.NewReader(unbounded.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		var obj struct {
			Ph  string `json:"ph"`
			TS  int64  `json:"ts"`
			Dur int64  `json:"dur"`
		}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if obj.Ph == "M" {
			evs = append(evs, ev{line: line, meta: true})
			continue
		}
		end := obj.TS + obj.Dur
		if end > maxTS {
			maxTS = end
		}
		evs = append(evs, ev{line: line, end: end})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var (
		b    strings.Builder
		seen []string
	)
	cutoff := maxTS - retain
	for _, e := range evs {
		if e.meta {
			dup := false
			for _, s := range seen {
				if s == e.line {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, e.line)
				b.WriteString(e.line + "\n")
			}
		}
	}
	for _, e := range evs {
		if !e.meta && e.end >= cutoff {
			b.WriteString(e.line + "\n")
		}
	}
	return b.String()
}

// TestTracerWindowMatchesTail pins the retention contract: a windowed
// tracer's output is exactly the unbounded tracer's tail — deduplicated
// metadata preamble plus every event still overlapping the trailing
// window — for the same call sequence. Checked across window sizes that
// cut inside run 2, span the run boundary, and cover everything.
func TestTracerWindowMatchesTail(t *testing.T) {
	var full bytes.Buffer
	un := NewTracer(&full)
	windowScript(un)
	if err := un.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, retain := range []int64{1, 200, 5000, 1 << 40} {
		var got bytes.Buffer
		w := NewTracerWindow(&got, retain)
		windowScript(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want := windowTail(t, &full, retain)
		if got.String() != want {
			t.Fatalf("retain=%d: window output diverges from unbounded tail\ngot:\n%s\nwant:\n%s",
				retain, got.String(), want)
		}
		if retain == 1<<40 && countEventLines(got.String()) != countEventLines(full.String()) {
			t.Fatalf("retain=%d dropped events: %d vs %d",
				retain, countEventLines(got.String()), countEventLines(full.String()))
		}
	}
}

// TestTracerWindowSweepBoundsMemory drives far more events than the
// window holds and checks the in-run sweep keeps the buffer near the
// live set instead of growing with the run.
func TestTracerWindowSweepBoundsMemory(t *testing.T) {
	var got bytes.Buffer
	w := NewTracerWindow(&got, 10)
	w.BeginRun("long")
	for i := int64(0); i < 100_000; i++ {
		w.Instant("tick", i, -1)
	}
	if n := len(w.ring); n > 2*minRingSweep {
		t.Fatalf("ring holds %d buffered events for a 10-tick window", n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Window [99990, 100000] minus the preamble: 11 instants survive.
	if n := countEventLines(got.String()); n != 11 {
		t.Fatalf("flushed %d events, want 11", n)
	}
}

// TestTracerWindowRestartsAfterFlush: events emitted after a Flush
// accumulate toward the next one, without re-writing the preamble.
func TestTracerWindowRestartsAfterFlush(t *testing.T) {
	var got bytes.Buffer
	w := NewTracerWindow(&got, 1<<40)
	w.BeginRun("first")
	w.Instant("a", 5, -1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	first := got.String()
	w.BeginRun("second")
	w.Instant("b", 5, -1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	second := strings.TrimPrefix(got.String(), first)
	if strings.Contains(second, `"ph":"M"`) {
		t.Fatalf("second flush re-wrote metadata:\n%s", second)
	}
	if strings.Contains(second, `"a"`) || !strings.Contains(second, `"b"`) {
		t.Fatalf("second flush has wrong events:\n%s", second)
	}
}

func countEventLines(s string) int {
	n := 0
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if line != "" && !strings.Contains(line, `"ph":"M"`) {
			n++
		}
	}
	return n
}
