// Active-set scheduling equivalence harness, the per-router analogue of
// fastforward_test.go. The property locked down here: deferring dormant
// routers and catching them up in closed form is bit-exact — every
// Result field except the two scheduling diagnostics is deeply equal
// between a lazy run and a fully eager tick-by-tick run, for all five
// model kinds on a train and a test trace, and for a closed-loop mcsim
// workload (a regime the quiescent-window fast-forward never covers).
package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flit"
	"repro/internal/mcsim"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// zeroSchedulingDiagnostics clears the Result fields that are allowed
// to differ between scheduling strategies: which ticks were covered by
// the event-horizon skip or the per-router lazy path is a property of
// the engine's schedule, not of the simulated hardware.
func zeroSchedulingDiagnostics(r *sim.Result) {
	r.HorizonSkippedTicks = 0
	r.LazySkippedRouterTicks = 0
}

// runActiveSetPair executes one configuration with default scheduling
// (active set + fast-forward) and fully eager (both disabled).
func runActiveSetPair(t *testing.T, s *core.Suite, kind core.ModelKind, trace string, collect bool) (lazy, eager *sim.Result) {
	t.Helper()
	spec, err := s.Spec(kind)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace(trace)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{
		Topo:           s.Topo,
		Spec:           spec,
		Trace:          tr,
		CollectDataset: collect,
		CollectSeries:  collect,
	}
	lazy, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh spec gives stateful selectors (ML+TURBO) a clean slate, as
	// the first run would have mutated shared counters.
	base.Spec, err = s.Spec(kind)
	if err != nil {
		t.Fatal(err)
	}
	base.NoActiveSet = true
	base.NoFastForward = true
	eager, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// TestActiveSetEquivalence proves active-set scheduling is bit-exact:
// for all five model kinds on a train and a test trace, every Result
// field except the scheduling diagnostics is deeply equal between a
// default (lazy) run and a fully eager tick-by-tick run.
func TestActiveSetEquivalence(t *testing.T) {
	s := passthroughSuite(t)
	engaged := false
	for _, kind := range core.AllKinds {
		for _, trace := range equivTraces {
			kind, trace := kind, trace
			t.Run(kind.String()+"/"+trace, func(t *testing.T) {
				lazy, eager := runActiveSetPair(t, s, kind, trace, false)
				if eager.LazySkippedRouterTicks != 0 {
					t.Fatalf("NoActiveSet run deferred %d router-ticks", eager.LazySkippedRouterTicks)
				}
				if lazy.LazySkippedRouterTicks > 0 {
					engaged = true
				}
				zeroSchedulingDiagnostics(lazy)
				zeroSchedulingDiagnostics(eager)
				if !reflect.DeepEqual(lazy, eager) {
					t.Errorf("active-set result differs from eager tick-by-tick:\nlazy:  %+v\neager: %+v", lazy, eager)
				}
			})
		}
	}
	if !engaged {
		t.Error("active-set deferral never engaged on any configuration; equivalence test is vacuous")
	}
}

// TestActiveSetEquivalenceCollecting repeats the equivalence check with
// dataset harvesting and series collection on, so the epoch-boundary
// catch-up barrier (IBU labels, feature vectors, series snapshots) is
// also proven exact.
func TestActiveSetEquivalenceCollecting(t *testing.T) {
	s := passthroughSuite(t)
	for _, kind := range []core.ModelKind{core.KindDozzNoC, core.KindPG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			lazy, eager := runActiveSetPair(t, s, kind, "blackscholes", true)
			zeroSchedulingDiagnostics(lazy)
			zeroSchedulingDiagnostics(eager)
			if !reflect.DeepEqual(lazy.Dataset, eager.Dataset) {
				t.Error("harvested datasets differ between active-set and eager runs")
			}
			if !reflect.DeepEqual(lazy.Series, eager.Series) {
				t.Error("epoch series differ between active-set and eager runs")
			}
			if !reflect.DeepEqual(lazy, eager) {
				t.Errorf("active-set result differs from eager tick-by-tick:\nlazy:  %+v\neager: %+v", lazy, eager)
			}
		})
	}
}

// TestActiveSetLazyTicksScheduleInvariant pins the diagnostic itself:
// because the active set never contains a deferrable router when the
// quiescent-window fast-forward fires, the number of lazily deferred
// router-ticks is identical whether or not global fast-forward engages.
func TestActiveSetLazyTicksScheduleInvariant(t *testing.T) {
	s := passthroughSuite(t)
	ff, slow := runPair(t, s, core.KindDozzNoC, "fft", false)
	if ff.LazySkippedRouterTicks != slow.LazySkippedRouterTicks {
		t.Errorf("lazy router-ticks depend on fast-forward: ff=%d tick-by-tick=%d",
			ff.LazySkippedRouterTicks, slow.LazySkippedRouterTicks)
	}
	if ff.LazySkippedRouterTicks == 0 {
		t.Error("active-set deferral never engaged")
	}
}

// TestActiveSetEquivalenceClosedLoop proves the equivalence on a
// closed-loop mcsim workload, where injection reacts to deliveries. The
// lazy arm runs with the event-horizon path enabled (mcsim
// implements traffic.NextInjector, so fast-forward engages even with a
// Workload attached) while the eager arm disables it — the comparison
// therefore also pins horizon-skip exactness against tick-by-tick
// execution. Both the engine Results and the workload's own stats must
// match.
func TestActiveSetEquivalenceClosedLoop(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	params := mcsim.DefaultSystem(topo)
	params.Core.Instructions = 20_000

	run := func(eager bool) (*sim.Result, mcsim.Stats) {
		w, err := mcsim.New(params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Topo:          topo,
			Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
			Workload:      w,
			NoActiveSet:   eager,
			NoFastForward: eager,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained {
			t.Fatal("closed-loop run did not finish")
		}
		return res, w.Stats()
	}
	lazy, lazyStats := run(false)
	eager, eagerStats := run(true)
	if lazy.LazySkippedRouterTicks == 0 {
		t.Error("active-set deferral never engaged on the closed-loop workload")
	}
	zeroSchedulingDiagnostics(lazy)
	zeroSchedulingDiagnostics(eager)
	if !reflect.DeepEqual(lazy, eager) {
		t.Errorf("active-set result differs from eager tick-by-tick:\nlazy:  %+v\neager: %+v", lazy, eager)
	}
	if !reflect.DeepEqual(lazyStats, eagerStats) {
		t.Errorf("workload stats differ:\nlazy:  %+v\neager: %+v", lazyStats, eagerStats)
	}
}

// bandedTrace keeps the top two and bottom two router rows of a mesh
// exchanging row-local traffic for the whole horizon while everything in
// between stays silent: two busy bands far apart, with a quiet middle
// that the active set defers.
func bandedTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	width, rows := topo.Width(), topo.Height()
	band := func(row0 int) []int {
		cores := make([]int, 0, 2*width)
		for row := row0; row < row0+2; row++ {
			for x := 0; x < width; x++ {
				cores = append(cores, topo.CoreAt(topo.RouterAt(x, row), 0))
			}
		}
		return cores
	}
	top, bottom := band(0), band(rows-2)
	tr := &traffic.Trace{Name: "banded", Cores: topo.NumCores(), Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+2, i+1 {
		tr.Entries = append(tr.Entries,
			traffic.Entry{Time: t, Src: top[i%len(top)], Dst: top[(i+3)%len(top)], Kind: flit.Request},
			traffic.Entry{Time: t, Src: bottom[i%len(bottom)], Dst: bottom[(i+5)%len(bottom)], Kind: flit.Request})
	}
	return tr
}

// probeSample is one occupancy observation made through the public
// feature-extractor hook.
type probeSample struct {
	Router   int
	Tick     int64
	Occupied int
	Cycle    int64
}

// probeExtractor wraps a real extractor and records, at every
// epoch-boundary Collect call, the router's occupancy aggregate and
// local cycle counter — the state DESIGN.md §5b says must never be
// sampled while a router is deferred and behind.
type probeExtractor struct {
	inner sim.FeatureExtractor
	log   []probeSample
}

func (p *probeExtractor) Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64 {
	p.log = append(p.log, probeSample{
		Router:   routerID,
		Tick:     int64(now),
		Occupied: net.Routers[routerID].Occupied(),
		Cycle:    net.Routers[routerID].LocalCycle(),
	})
	return p.inner.Collect(routerID, net, ctrl, ibu, now)
}

// TestEpochBarrierGuardsOccupancySampling is the regression test for the
// §5b barrier precondition: the only path the public API offers for
// sampling a router's occupancy mid-run is the epoch-boundary extractor
// hook, and every observation it yields must come from fully caught-up
// state. A lazily scheduled run (deferral + fast-forward + arming all
// engaged) must produce the identical observation log — occupancy AND
// local cycle counters — as a fully eager run; a missed catchUpAll would
// leave a deferred router's cycle counter behind and diverge the log.
// (Inside the engine the same precondition is asserted outright: the
// epoch boundary panics if any router's catch-up tick lags the epoch
// tick.)
func TestEpochBarrierGuardsOccupancySampling(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	p, ok := traffic.ProfileByName("fft")
	if !ok {
		t.Fatal("unknown profile fft")
	}
	g := traffic.Generator{Topo: topo, Horizon: 8000, Seed: 3}
	tr := g.Generate(p)
	run := func(eager bool) (*probeExtractor, *sim.Result) {
		probe := &probeExtractor{inner: features.NewExtractor(topo)}
		res, err := sim.Run(sim.Config{
			Topo:          topo,
			Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
			Trace:         tr,
			Extractor:     probe,
			NoActiveSet:   eager,
			NoFastForward: eager,
		})
		if err != nil {
			t.Fatal(err)
		}
		return probe, res
	}
	lazyProbe, lazyRes := run(false)
	eagerProbe, _ := run(true)
	if lazyRes.LazySkippedRouterTicks == 0 {
		t.Fatal("active-set deferral never engaged; the probe proves nothing")
	}
	if len(lazyProbe.log) == 0 {
		t.Fatal("extractor hook never fired")
	}
	if !reflect.DeepEqual(lazyProbe.log, eagerProbe.log) {
		t.Errorf("epoch-boundary occupancy observations diverge between lazy and eager runs (%d vs %d samples): a deferred router was sampled without the catch-up barrier", len(lazyProbe.log), len(eagerProbe.log))
	}
}
