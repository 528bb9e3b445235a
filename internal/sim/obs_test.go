// Observability-layer integration tests: the obs mirrors must agree with
// both the engine's Result diagnostics and the controller's policy.Stats
// (one source of truth, cross-checked), the deterministic snapshot must
// be identical across reruns, the engine-phase tracer must emit valid
// Chrome trace_event JSONL covering the sweep/barrier phases, and
// sourcing the per-epoch series through obs must leave the figure
// pipeline's CSV bytes untouched.
package sim_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// runObserved executes one bursty configuration (busy bursts between
// idle gaps, so both the sweep and the horizon skip engage) with a fresh
// Metrics attached.
func runObserved(t *testing.T, linkTicks int64, tracer *obs.Tracer) (*sim.Result, *obs.Metrics) {
	t.Helper()
	return runObservedConfig(t, linkTicks, tracer, false)
}

// runObservedConfig is runObserved with an eager switch: eager runs
// tick by tick (NoFastForward) and visit every router each tick
// (NoActiveSet), the reference the accelerated engine must match.
func runObservedConfig(t *testing.T, linkTicks int64, tracer *obs.Tracer, eager bool) (*sim.Result, *obs.Metrics) {
	t.Helper()
	topo := topology.NewMesh(8, 16)
	observer := &obs.Observer{Metrics: obs.NewMetrics(), Tracer: tracer}
	res, err := sim.Run(sim.Config{
		Topo:          topo,
		Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
		Trace:         burstyTrace(topo, 11, 20_000),
		LinkTicks:     linkTicks,
		Obs:           observer,
		NoFastForward: eager,
		NoActiveSet:   eager,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, observer.Metrics
}

// TestObsLaneFoldMatchesSerial is the acceptance check for the staging
// lane: the folded totals and per-epoch rollups of an accelerated run
// (horizon skips, lazy deferral) must equal those of an eager
// tick-by-tick run that visits every router on every tick.
func TestObsLaneFoldMatchesSerial(t *testing.T) {
	fastRes, fastM := runObservedConfig(t, 2, nil, false)
	eagerRes, eagerM := runObservedConfig(t, 2, nil, true)
	fast, eager := fastM.Snapshot(), eagerM.Snapshot()
	if fastRes.HorizonSkippedTicks == 0 || fastRes.LazySkippedRouterTicks == 0 {
		t.Fatalf("accelerated paths did not engage; the lane-fold check is vacuous: horizon=%d lazy=%d",
			fastRes.HorizonSkippedTicks, fastRes.LazySkippedRouterTicks)
	}
	if eagerRes.HorizonSkippedTicks != 0 || eagerRes.LazySkippedRouterTicks != 0 {
		t.Fatalf("eager run skipped work: horizon=%d lazy=%d",
			eagerRes.HorizonSkippedTicks, eagerRes.LazySkippedRouterTicks)
	}
	if eager.Gatings == 0 || eager.Wakes == 0 || eager.ModeSwitches == 0 {
		t.Fatalf("eager run saw no events to fold: %+v", eager)
	}
	if fast.Gatings != eager.Gatings ||
		fast.Wakes != eager.Wakes ||
		fast.WakeOffTicks != eager.WakeOffTicks ||
		fast.ModeSwitches != eager.ModeSwitches ||
		fast.EpochDecisions != eager.EpochDecisions ||
		fast.ResidencyTicks != eager.ResidencyTicks {
		t.Errorf("accelerated lane fold differs from eager:\nfast:  %+v\neager: %+v", fast, eager)
	}
	// The per-epoch rollup deltas must sum back to the totals they were
	// drained from, and epoch for epoch the two runs must agree.
	fe, ee := fastM.Epochs(), eagerM.Epochs()
	if len(fe) == 0 || len(fe) != len(ee) {
		t.Fatalf("epoch rollup counts differ: fast %d, eager %d", len(fe), len(ee))
	}
	var g, w, ms, lz int64
	for i := range fe {
		if fe[i].Gatings != ee[i].Gatings || fe[i].Wakes != ee[i].Wakes ||
			fe[i].ModeSwitches != ee[i].ModeSwitches || fe[i].AvgIBU != ee[i].AvgIBU ||
			fe[i].ResidencyDelta != ee[i].ResidencyDelta ||
			fe[i].StaticJDelta != ee[i].StaticJDelta || fe[i].DynamicJDelta != ee[i].DynamicJDelta {
			t.Fatalf("epoch %d rollup differs:\nfast:  %+v\neager: %+v", i, fe[i], ee[i])
		}
		g += fe[i].Gatings
		w += fe[i].Wakes
		ms += fe[i].ModeSwitches
		lz += fe[i].LazyTicks
	}
	// Totals may exceed the epoch sums only by the post-boundary
	// remainder folded at FinishRun, so the sums must not exceed them.
	if g > fast.Gatings || w > fast.Wakes || ms > fast.ModeSwitches || lz > fast.LazyTicks {
		t.Errorf("epoch deltas overrun totals: g=%d/%d w=%d/%d ms=%d/%d lz=%d/%d",
			g, fast.Gatings, w, fast.Wakes, ms, fast.ModeSwitches, lz, fast.LazyTicks)
	}
}

// TestObsSnapshotDeterministic pins the Deterministic() contract: two
// identical runs yield DeepEqual filtered snapshots, scheduling mirrors
// (skipped ticks, lazy router-ticks, sweeps, active-set size) included.
func TestObsSnapshotDeterministic(t *testing.T) {
	_, a := runObserved(t, 2, nil)
	_, b := runObserved(t, 2, nil)
	sa, sb := a.Snapshot().Deterministic(), b.Snapshot().Deterministic()
	if sa.Epochs == 0 || sa.Sweeps == 0 {
		t.Fatalf("run folded nothing: %+v", sa)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("identical runs differ after Deterministic():\nfirst:  %+v\nsecond: %+v", sa, sb)
	}
}

// TestObsMirrorsEngineDiagnostics pins the one-source-of-truth contract:
// the obs snapshot's scheduling mirrors must equal the engine's Result
// diagnostics, and its event totals must equal the controller's
// policy.Stats, on a run that exercises the accelerated paths (horizon
// skips, lazy deferral).
func TestObsMirrorsEngineDiagnostics(t *testing.T) {
	res, m := runObserved(t, 2, nil)
	snap := m.Snapshot()
	if res.HorizonSkippedTicks == 0 || res.LazySkippedRouterTicks == 0 {
		t.Fatalf("accelerated paths did not all engage: horizon=%d lazy=%d",
			res.HorizonSkippedTicks, res.LazySkippedRouterTicks)
	}
	if snap.HorizonSkippedTicks != res.HorizonSkippedTicks {
		t.Errorf("obs HorizonSkippedTicks %d != Result %d", snap.HorizonSkippedTicks, res.HorizonSkippedTicks)
	}
	if snap.LazyTicks != res.LazySkippedRouterTicks {
		t.Errorf("obs LazyTicks %d != Result %d", snap.LazyTicks, res.LazySkippedRouterTicks)
	}
	if snap.Gatings != res.Policy.Gatings {
		t.Errorf("obs Gatings %d != policy %d", snap.Gatings, res.Policy.Gatings)
	}
	if snap.Wakes != res.Policy.Wakes {
		t.Errorf("obs Wakes %d != policy %d", snap.Wakes, res.Policy.Wakes)
	}
	if snap.ModeSwitches != res.Policy.ModeSwitches {
		t.Errorf("obs ModeSwitches %d != policy %d", snap.ModeSwitches, res.Policy.ModeSwitches)
	}
	if snap.EpochDecisions != res.Policy.EpochDecisions {
		t.Errorf("obs EpochDecisions %d != policy %d", snap.EpochDecisions, res.Policy.EpochDecisions)
	}
	if snap.Sweeps == 0 {
		t.Error("no sweeps recorded")
	}
	if snap.Tick != res.Ticks {
		t.Errorf("obs Tick %d != Result.Ticks %d", snap.Tick, res.Ticks)
	}
}

// traceEvent is the subset of the Chrome trace_event schema the tests
// decode.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
}

// TestObsTraceJSONL runs a configuration with tracing on and checks the
// output is valid JSONL Chrome trace events covering the engine's sweep,
// skip and barrier phases.
func TestObsTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	runObserved(t, 2, tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete span with non-positive dur: %+v", ev)
			}
		case "i", "M":
		default:
			t.Fatalf("unexpected event phase %q: %+v", ev.Ph, ev)
		}
		if ev.Ph != "M" && ev.TS < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		if ev.PID != 1 {
			t.Fatalf("unexpected pid: %+v", ev)
		}
		seen[ev.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("tracer emitted nothing")
	}
	for _, name := range []string{"sweep", "horizon-skip", "catch-up-barrier", "epoch", "thread_name", "process_name"} {
		if seen[name] == 0 {
			t.Errorf("trace is missing %q events (saw %v)", name, seen)
		}
	}
}

// TestObsSeriesGoldenCSV is the figure-pipeline regression: the
// per-epoch series now flows through obs.Metrics.FoldEpoch, and its CSV
// export must stay byte-identical to the golden file pinned before the
// relocation — with no observer (the engine's internal Metrics), and
// with an explicitly attached one.
func TestObsSeriesGoldenCSV(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "series_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewMesh(4, 4)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.01, 5000, 2)
	for _, attach := range []bool{false, true} {
		cfg := sim.Config{
			Topo:          topo,
			Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
			Trace:         tr,
			CollectSeries: true,
		}
		var observer *obs.Observer
		if attach {
			observer = obs.New()
			cfg.Obs = observer
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Series.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("attach=%v: series CSV differs from golden:\ngot:\n%s\nwant:\n%s", attach, buf.Bytes(), golden)
		}
		if attach && observer.Metrics.Series() != res.Series {
			t.Error("Result.Series is not the attached observer's series")
		}
	}
}
