// Event-horizon equivalence harness (DESIGN.md §5h). The fast-forward
// path's original precondition — full network quiescence, no workload
// attached — was relaxed by the unified event horizon: the engine now
// skips idle windows with flits riding wires, packets queued behind
// gated routers, securing claims held, and closed-loop workloads
// attached (via traffic.NextInjector). These tests pin the relaxed
// path's bit-exactness against tick-by-tick execution on the traffic
// shapes that exercise each new regime: randomized bursty traces with
// long mid-epoch gaps (wire-flight and wake-window skips), a
// trace-shaped Replay workload (the injection watermark), and the
// closed-loop mcsim multicore model (watermark + SkipTicks replay).
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/mcsim"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// burstyTrace generates short randomized bursts separated by long idle
// gaps. The gap distribution (tens to thousands of ticks) deliberately
// straddles every horizon regime: gaps shorter than the drain leave
// flits on wires, mid-size gaps land inside wake windows and idle-gating
// countdowns, and long gaps cross epoch boundaries mid-gap.
func burstyTrace(topo topology.Topology, seed, horizon int64) *traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	nc := topo.NumCores()
	tr := &traffic.Trace{Name: "bursty", Cores: nc, Horizon: horizon}
	for t := int64(0); t < horizon; t += 40 + int64(rng.Intn(2600)) {
		for i, n := 0, 3+rng.Intn(8); i < n; i++ {
			src := rng.Intn(nc)
			dst := rng.Intn(nc)
			if dst == src {
				dst = (dst + 1) % nc
			}
			kind := flit.Request
			if rng.Intn(2) == 1 {
				kind = flit.Response
			}
			tr.Entries = append(tr.Entries, traffic.Entry{
				Time: t + int64(rng.Intn(4)), Src: src, Dst: dst, Kind: kind,
			})
		}
	}
	tr.SortEntries()
	return tr
}

// runHorizonPair executes one bursty configuration with the horizon path
// enabled and disabled and returns both results.
func runHorizonPair(t *testing.T, s *core.Suite, kind core.ModelKind, tr *traffic.Trace, linkTicks int64) (fast, slow *sim.Result) {
	t.Helper()
	spec, err := s.Spec(kind)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{
		Topo:      s.Topo,
		Spec:      spec,
		Trace:     tr,
		LinkTicks: linkTicks,
	}
	fast, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh spec gives stateful selectors (ML+TURBO) a clean slate.
	base.Spec, err = s.Spec(kind)
	if err != nil {
		t.Fatal(err)
	}
	base.NoFastForward = true
	slow, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return fast, slow
}

// TestHorizonEquivalenceBursty proves the event-horizon path bit-exact
// on a randomized bursty trace for all five model kinds and wire
// latencies 1 and 3: every Result field except the scheduling
// diagnostics is deeply equal between horizon-skip and tick-by-tick
// runs. The subtests keep the "shards1" suffix they carried when the
// engine could split a run across shards, so their names stay stable;
// the single serial engine is that one-shard arm.
func TestHorizonEquivalenceBursty(t *testing.T) {
	s := passthroughSuite(t)
	tr := burstyTrace(s.Topo, 11, 20_000)
	for _, kind := range core.AllKinds {
		for _, linkTicks := range []int64{1, 3} {
			kind, linkTicks := kind, linkTicks
			t.Run(fmt.Sprintf("%s/link%d/shards1", kind, linkTicks), func(t *testing.T) {
				fast, slow := runHorizonPair(t, s, kind, tr, linkTicks)
				if slow.HorizonSkippedTicks != 0 {
					t.Fatalf("NoFastForward run skipped %d ticks", slow.HorizonSkippedTicks)
				}
				if fast.HorizonSkippedTicks == 0 {
					t.Error("horizon skip never engaged on a bursty trace")
				}
				zeroSchedulingDiagnostics(fast)
				zeroSchedulingDiagnostics(slow)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("horizon result differs from tick-by-tick:\nfast: %+v\nslow: %+v", fast, slow)
				}
			})
		}
	}
}

// TestHorizonSkipsWireFlight pins that the horizon also skips windows
// that are not quiescent: one packet crossing 400-tick wires keeps a flit
// in flight and a securing claim held for the whole run, yet almost every
// tick is covered by closed-form skips.
func TestHorizonSkipsWireFlight(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	src, dst := topo.CoreAt(topo.RouterAt(0, 0), 0), topo.CoreAt(topo.RouterAt(3, 3), 0)
	tr := &traffic.Trace{Name: "flight", Cores: topo.NumCores(), Horizon: 1,
		Entries: []traffic.Entry{{Time: 0, Src: src, Dst: dst, Kind: flit.Request}}}
	res, err := sim.Run(sim.Config{Topo: topo, Spec: policy.Baseline(), Trace: tr, LinkTicks: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.PacketsDelivered != 1 {
		t.Fatalf("packet not delivered: drained=%v delivered=%d", res.Drained, res.PacketsDelivered)
	}
	if frac := float64(res.HorizonSkippedTicks) / float64(res.Ticks); frac < 0.9 {
		t.Errorf("horizon skipped %d of %d ticks (%.0f%%) with a flit on the wire", res.HorizonSkippedTicks, res.Ticks, 100*frac)
	}
}

// TestHorizonEquivalenceBurstyFuzz replays the equivalence over several
// random trace seeds on the full DozzNoC model with slow wires — the
// configuration with the most concurrent watermarks (wire flights, wake
// windows, idle-gating countdowns, DVFS switch timers).
func TestHorizonEquivalenceBurstyFuzz(t *testing.T) {
	s := passthroughSuite(t)
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := burstyTrace(s.Topo, seed, 20_000)
			fast, slow := runHorizonPair(t, s, core.KindDozzNoC, tr, 3)
			zeroSchedulingDiagnostics(fast)
			zeroSchedulingDiagnostics(slow)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("seed %d: horizon result differs from tick-by-tick:\nfast: %+v\nslow: %+v", seed, fast, slow)
			}
		})
	}
}

// TestHorizonEquivalenceReplayWorkload drives the same trace through the
// traffic.Replay workload adapter (exercising the Workload-side
// injection watermark) and through the engine's native trace cursor with
// fast-forward off: the two runs must agree on every Result field.
func TestHorizonEquivalenceReplayWorkload(t *testing.T) {
	s := passthroughSuite(t)
	tr := burstyTrace(s.Topo, 7, 20_000)
	spec, err := s.Spec(core.KindDozzNoC)
	if err != nil {
		t.Fatal(err)
	}
	w := traffic.NewReplay(tr)
	fast, err := sim.Run(sim.Config{Topo: s.Topo, Spec: spec, Workload: w, LinkTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fast.HorizonSkippedTicks == 0 {
		t.Error("horizon skip never engaged with a NextInjector workload attached")
	}
	if w.Delivered() != fast.PacketsDelivered {
		t.Errorf("replay saw %d deliveries, engine counted %d", w.Delivered(), fast.PacketsDelivered)
	}
	spec, err = s.Spec(core.KindDozzNoC)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sim.Run(sim.Config{Topo: s.Topo, Spec: spec, Trace: tr, LinkTicks: 3, NoFastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	// The runs label their source differently ("workload" vs the trace
	// name); everything simulated must match.
	fast.Trace, slow.Trace = "", ""
	zeroSchedulingDiagnostics(fast)
	zeroSchedulingDiagnostics(slow)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("replay-workload result differs from native trace run:\nreplay: %+v\ntrace:  %+v", fast, slow)
	}
}

// TestHorizonEquivalenceClosedLoop proves the event horizon exact on the
// closed-loop mcsim workload — the regime the old quiescent-only path
// could never touch (Workload != nil used to disable fast-forward
// outright). The horizon arm must both engage (HorizonSkippedTicks > 0)
// and reproduce the tick-by-tick run bit-for-bit, including the
// workload's own statistics.
func TestHorizonEquivalenceClosedLoop(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	params := mcsim.DefaultSystem(topo)
	params.Core.Instructions = 20_000

	run := func(noFF bool) (*sim.Result, mcsim.Stats) {
		w, err := mcsim.New(params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Topo:          topo,
			Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
			Workload:      w,
			NoFastForward: noFF,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained {
			t.Fatal("closed-loop run did not finish")
		}
		return res, w.Stats()
	}
	slow, slowStats := run(true)
	fast, fastStats := run(false)
	if fast.HorizonSkippedTicks == 0 {
		t.Error("event horizon never engaged on the closed-loop workload")
	}
	zeroSchedulingDiagnostics(fast)
	zeroSchedulingDiagnostics(slow)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("closed-loop horizon result differs from tick-by-tick:\nfast: %+v\nslow: %+v", fast, slow)
	}
	if !reflect.DeepEqual(fastStats, slowStats) {
		t.Errorf("workload stats differ:\nfast: %+v\nslow: %+v", fastStats, slowStats)
	}
}
