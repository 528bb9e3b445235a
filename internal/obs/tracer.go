package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Tracer emits engine-phase spans in the Chrome trace_event JSON format,
// one event object per line (JSONL). Perfetto and chrome://tracing load
// the output directly — their tokenizers accept a bare stream of event
// objects, so no closing bracket is needed even if a run is cut short.
//
// Timestamps are virtual: one simulated base tick maps to one trace
// microsecond, so span widths in the viewer read as tick counts.
// Successive runs traced into one file (sweeps, experiment suites) are
// offset by BeginRun so they lay out end to end instead of overlapping.
//
// Everything lands on one engine track. Adjacent same-named spans are
// coalesced — a sweep phase that holds for 10k ticks is one 10k-µs span,
// not 10k one-µs spans — which keeps files loadable for long runs. A
// Tracer is not safe for concurrent use; one engine drives it at a time.
type Tracer struct {
	w   *bufio.Writer
	err error

	base    int64 // virtual-µs offset of the current run
	maxTS   int64 // high-water mark across runs (pre-offset absolute µs)
	started bool  // process metadata written

	pending span // coalescing buffer for the open span

	// Retention window (NewTracerWindow): events are buffered in ring
	// instead of streamed, and Flush writes only those whose end
	// timestamp falls within the last retain virtual µs (= base ticks)
	// of the high-water mark. Metadata lines (process/track names) are
	// collected in preamble and always written, so the output stays
	// loadable. retain == 0 is the unbounded streaming mode.
	retain    int64
	preamble  []string
	ring      []retEvent
	ringSweep int  // buffered-event count that triggers the next sweep
	flushed   bool // retained events already written; ring restarts empty
}

// retEvent is one buffered line in retention mode, keyed by the virtual
// timestamp at which the event ends (ts for instants, ts+dur for spans):
// an old span still overlapping the window is retained.
type retEvent struct {
	end  int64
	line string
}

type span struct {
	name   string
	start  int64 // absolute virtual µs (base applied)
	end    int64
	active bool
}

// NewTracer wraps w (typically an *os.File; the caller closes it after
// Flush). Writes are buffered.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 64<<10)}
}

// NewTracerWindow is NewTracer with time-window retention: instead of
// streaming every event, the tracer buffers them and Flush writes only
// those whose end timestamp falls within the trailing retainTicks of
// virtual time (1 tick = 1 µs), plus the metadata preamble that keeps
// the file loadable. This bounds both file size and memory for
// always-on tracing in long-running deployments (the cosim daemon):
// what survives is exactly the unbounded tracer's tail, which
// TestTracerWindowMatchesTail pins. retainTicks <= 0 selects the
// unbounded streaming mode.
func NewTracerWindow(w io.Writer, retainTicks int64) *Tracer {
	t := NewTracer(w)
	if retainTicks > 0 {
		t.retain = retainTicks
	}
	return t
}

// BeginRun starts a new traced run: closes any pending spans, moves the
// time base past everything already emitted, and names the process and
// the engine track. label shows up as an instant at the run's origin.
func (t *Tracer) BeginRun(label string) {
	t.flushPending()
	if !t.started {
		t.started = true
		t.meta(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"dozznoc-sim"}}`)
	}
	// Leave a visible gap between runs.
	if t.maxTS > 0 {
		t.maxTS += 100
	}
	t.base = t.maxTS
	t.meta(`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}}`)
	t.event(t.base, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":0,"s":"p"}`, "run: "+label, t.base)
}

// Span records a phase of dur ticks starting at tick start. Zero-duration
// spans are dropped; a span contiguous with the pending same-named span
// extends it instead of emitting a new event.
func (t *Tracer) Span(name string, start, dur int64) {
	if dur <= 0 {
		return
	}
	s, e := t.base+start, t.base+start+dur
	if e > t.maxTS {
		t.maxTS = e
	}
	p := &t.pending
	if p.active && p.name == name && p.end == s {
		p.end = e
		return
	}
	if p.active {
		t.emitSpan(p)
	}
	*p = span{name: name, start: s, end: e, active: true}
}

// Instant records a point event at tick; n (a count, e.g. the drift
// fires so far) is attached as an argument when >= 0.
func (t *Tracer) Instant(name string, tick, n int64) {
	ts := t.base + tick
	if ts > t.maxTS {
		t.maxTS = ts
	}
	if n >= 0 {
		t.event(ts, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":0,"s":"t","args":{"n":%d}}`, name, ts, n)
		return
	}
	t.event(ts, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":0,"s":"t"}`, name, ts)
}

// Flush closes pending spans and drains the buffer; it returns the first
// write error encountered over the Tracer's lifetime. Call it before
// closing the underlying file; the Tracer remains usable (BeginRun)
// afterwards. In retention mode (NewTracerWindow) this is the emission
// point: the metadata preamble (first Flush only) and the buffered
// events still inside the trailing window are written, and the buffer
// restarts empty — events emitted after a Flush accumulate toward the
// next one.
func (t *Tracer) Flush() error {
	t.flushPending()
	if t.retain > 0 {
		if !t.flushed {
			t.flushed = true
			for _, line := range t.preamble {
				t.write(line)
			}
			t.preamble = nil
		}
		cutoff := t.maxTS - t.retain
		for _, ev := range t.ring {
			if ev.end >= cutoff {
				t.write(ev.line)
			}
		}
		t.ring = t.ring[:0]
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

func (t *Tracer) flushPending() {
	if t.pending.active {
		t.emitSpan(&t.pending)
		t.pending.active = false
	}
}

func (t *Tracer) emitSpan(p *span) {
	t.event(p.end, `{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":0}`, p.name, p.start, p.end-p.start)
}

// meta writes one metadata line. Metadata carries no timestamp: it
// streams directly in unbounded mode and joins the always-written
// preamble (deduplicated — BeginRun re-emits the track name each run) in
// retention mode.
func (t *Tracer) meta(line string) {
	line += "\n"
	if t.retain > 0 {
		for _, p := range t.preamble {
			if p == line {
				return
			}
		}
		t.preamble = append(t.preamble, line)
		return
	}
	t.write(line)
}

// event formats one timestamped line; end is the virtual µs at which the
// event stops mattering (ts for instants, ts+dur for spans), the
// retention key.
func (t *Tracer) event(end int64, format string, args ...any) {
	if t.err != nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	if t.retain > 0 {
		t.ring = append(t.ring, retEvent{end: end, line: line})
		if len(t.ring) >= t.ringSweep {
			t.sweepRing()
		}
		return
	}
	t.write(line)
}

// sweepRing drops buffered events that have already fallen out of the
// window. It runs every time the buffer doubles past its post-sweep
// size, so the cost is amortized O(1) per event and memory stays
// proportional to the live window.
func (t *Tracer) sweepRing() {
	cutoff := t.maxTS - t.retain
	live := t.ring[:0]
	for _, ev := range t.ring {
		if ev.end >= cutoff {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(t.ring); i++ {
		t.ring[i] = retEvent{} // release retained line strings
	}
	t.ring = live
	t.ringSweep = 2 * len(live)
	if t.ringSweep < minRingSweep {
		t.ringSweep = minRingSweep
	}
}

// minRingSweep is the smallest buffered-event count that triggers a
// retention sweep.
const minRingSweep = 256

func (t *Tracer) write(line string) {
	if t.err != nil {
		return
	}
	if _, err := t.w.WriteString(line); err != nil {
		t.err = err
	}
}
