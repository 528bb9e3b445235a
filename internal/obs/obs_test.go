package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
)

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var evs []map[string]any
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSON line: %v\n%s", err, sc.Text())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestTracerCoalescesAdjacentSpans: per-tick spans of the same name that
// run back to back must merge into one event; a different name or a gap
// must flush.
func TestTracerCoalescesAdjacentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.BeginRun("test")
	for tick := int64(0); tick < 10; tick++ {
		tr.Span("sweep", tick, 1)
	}
	tr.Span("sweep-eager", 10, 1) // name change flushes
	tr.Span("sweep-eager", 12, 1) // gap at 11 flushes
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	for _, ev := range decodeLines(t, &buf) {
		if ev["ph"] == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("expected 3 coalesced spans, got %d: %v", len(spans), spans)
	}
	if spans[0]["name"] != "sweep" || spans[0]["dur"] != float64(10) {
		t.Errorf("first span should cover 10 ticks: %v", spans[0])
	}
	if spans[1]["dur"] != float64(1) || spans[2]["dur"] != float64(1) {
		t.Errorf("non-adjacent spans must not merge: %v", spans[1:])
	}
}

// TestTracerRunsDoNotOverlap: BeginRun must shift the second run's
// events past everything the first emitted.
func TestTracerRunsDoNotOverlap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.BeginRun("first")
	tr.Span("sweep-eager", 0, 500)
	tr.BeginRun("second")
	tr.Span("sweep-eager", 0, 5)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, ev := range decodeLines(t, &buf) {
		if ev["ph"] == "X" {
			ts = append(ts, ev["ts"].(float64))
		}
	}
	if len(ts) != 2 {
		t.Fatalf("expected 2 spans, got %d", len(ts))
	}
	if ts[1] < ts[0]+500 {
		t.Errorf("second run overlaps the first: ts %v", ts)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestTracerStickyError: a write failure surfaces on Flush and the
// tracer keeps accepting (and dropping) events instead of panicking.
func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(&errWriter{n: 16})
	tr.BeginRun("x")
	for tick := int64(0); tick < 100; tick += 2 {
		tr.Span("a", tick, 1) // gaps force emission
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("expected the write error to surface on Flush")
	}
}

// TestMetricsLaneRouting: events for any router land in the staging
// lane and fold into the totals exactly once.
func TestMetricsLaneRouting(t *testing.T) {
	m := NewMetrics()
	m.BindRun("test", 16, 500, false)
	m.RouterGated(3)
	m.RouterGated(11)
	m.RouterWoken(11, 40, 6)
	m.OnLazyCatchUp(25)
	m.OnSweep()
	m.OnHorizonSkip(100)
	m.FinishRun(1000, EpochFold{ActiveRouters: 2})
	snap := m.Snapshot()
	if snap.Gatings != 2 || snap.Wakes != 1 || snap.WakeOffTicks != 40 || snap.LazyTicks != 25 {
		t.Errorf("event totals wrong: %+v", snap)
	}
	if snap.WakeStallHist.Count != 1 || snap.WakeStallHist.Sum != 6 {
		t.Errorf("wake-stall histogram wrong: %+v", snap.WakeStallHist)
	}
	if snap.HorizonSkippedTicks != 100 || snap.Sweeps != 1 {
		t.Errorf("scheduling mirrors wrong: %+v", snap)
	}
	if snap.Tick != 1000 || snap.Run != 1 {
		t.Errorf("run bookkeeping wrong: %+v", snap)
	}
	// A second FinishRun must not fold the same lane events again.
	m.FinishRun(1000, EpochFold{ActiveRouters: 2})
	if snap := m.Snapshot(); snap.Gatings != 2 || snap.Wakes != 1 || snap.LazyTicks != 25 || snap.Sweeps != 1 {
		t.Errorf("lane folded twice: %+v", snap)
	}
	// Rebinding resets per-run state but keeps counting runs.
	m.BindRun("again", 4, 500, false)
	if snap := m.Snapshot(); snap.Gatings != 0 || snap.Run != 2 {
		t.Errorf("rebind did not reset: %+v", snap)
	}
}

// TestServerServesExpvarAndPprof starts the live endpoint on a free
// port and checks /debug/vars carries the published dozznoc snapshot
// and the pprof index answers.
func TestServerServesExpvarAndPprof(t *testing.T) {
	m := NewMetrics()
	m.BindRun("endpoint-test", 4, 500, false)
	m.OnHorizonSkip(42)
	m.FinishRun(123, EpochFold{ActiveRouters: 1})

	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: status %d, err %v", resp.StatusCode, err)
	}
	var vars struct {
		Dozznoc *Snapshot `json:"dozznoc"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars.Dozznoc == nil || vars.Dozznoc.Label != "endpoint-test" || vars.Dozznoc.HorizonSkippedTicks != 42 {
		t.Errorf("published snapshot wrong: %+v", vars.Dozznoc)
	}

	resp, err = client.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(idx), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// TestFoldPublishesOnlyWhileServing: an epoch fold republishes the live
// snapshot only while a Server is open, and the end of a run publishes
// regardless, so the endpoint always ends up showing the last run.
func TestFoldPublishesOnlyWhileServing(t *testing.T) {
	const nR = 2
	ctrl := policy.NewController(nR, policy.Baseline())
	meters := make([]power.Meter, nR)
	m := NewMetrics()
	m.BindRun("fold-publish", nR, 500, false)
	setLiveSnapshot(&Snapshot{Label: "sentinel"})

	m.FoldEpoch(EpochFold{Now: 500}, ctrl, meters)
	if got := LiveSnapshot().Label; got != "sentinel" {
		t.Errorf("fold with no server open published %q", got)
	}

	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.FoldEpoch(EpochFold{Now: 1000}, ctrl, meters)
	if snap := LiveSnapshot(); snap.Label != "fold-publish" || snap.Tick != 1000 || snap.Epochs != 2 {
		t.Errorf("fold with a server open published %+v", snap)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close() //nolint:errcheck // a second Close must not unbalance the count
	if n := liveServers.Load(); n != 0 {
		t.Fatalf("open-server count %d after Close", n)
	}

	m.FoldEpoch(EpochFold{Now: 1500}, ctrl, meters)
	if got := LiveSnapshot().Tick; got != 1000 {
		t.Errorf("fold after Close republished (tick %d)", got)
	}
	m.FinishRun(1600, EpochFold{})
	if snap := LiveSnapshot(); snap.Tick != 1600 || snap.Epochs != 3 {
		t.Errorf("FinishRun did not publish the run's end: %+v", snap)
	}
}
