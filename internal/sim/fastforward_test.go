// Determinism and fast-forward equivalence harness. This lives in an
// external test package (sim_test) so it can drive the engine through
// the core.Suite API — core imports sim, so an internal test would be an
// import cycle.
//
// The two properties locked down here:
//
//  1. Determinism: the same configuration run twice produces deeply
//     equal Results, for every model kind.
//  2. Fast-forward exactness: the quiescent-window fast-forward path is
//     a bit-exact closed form of tick-by-tick execution — every counter,
//     latency, energy figure, mode-residency fraction and harvested
//     dataset row matches exactly (not approximately) with the path on
//     or off, for all five model kinds on a train and a test trace.
package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// passthroughSuite builds a reduced 4x4 suite with IBU-passthrough
// predictors installed, so ML kinds run without the training pipeline.
func passthroughSuite(t testing.TB) *core.Suite {
	t.Helper()
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 8000, Seed: 3})
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	return s
}

// equivTraces pairs one training-split and one test-split workload, per
// the acceptance criteria for the equivalence proof.
var equivTraces = []string{"blackscholes", "fft"}

func init() {
	for _, name := range equivTraces {
		p, ok := traffic.ProfileByName(name)
		if !ok {
			panic("unknown equivalence trace " + name)
		}
		switch {
		case name == "blackscholes" && p.Split != traffic.Train:
			panic("blackscholes is expected to be a training trace")
		case name == "fft" && p.Split != traffic.Test:
			panic("fft is expected to be a test trace")
		}
	}
}

// TestDeterminism runs every model kind twice on the same seeded trace
// and requires deeply equal Results.
func TestDeterminism(t *testing.T) {
	s := passthroughSuite(t)
	for _, kind := range core.AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			a, err := s.RunBenchmark(kind, "fft", 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.RunBenchmark(kind, "fft", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identical runs differ:\nrun1: %+v\nrun2: %+v", a, b)
			}
		})
	}
}

// runPair executes one configuration with the fast-forward path enabled
// and disabled and returns both results.
func runPair(t *testing.T, s *core.Suite, kind core.ModelKind, trace string, collect bool) (ff, slow *sim.Result) {
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
	ff, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh spec gives stateful selectors (ML+TURBO) a clean slate, as
	// the first run would have mutated shared counters.
	base.Spec, err = s.Spec(kind)
	if err != nil {
		t.Fatal(err)
	}
	base.NoFastForward = true
	slow, err = sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return ff, slow
}

// TestFastForwardEquivalence proves the fast-forward path is bit-exact:
// for all five model kinds on a train and a test trace, every Result
// field except the scheduling diagnostics is deeply equal between
// fast-forward and tick-by-tick runs.
func TestFastForwardEquivalence(t *testing.T) {
	s := passthroughSuite(t)
	engaged := false
	for _, kind := range core.AllKinds {
		for _, trace := range equivTraces {
			kind, trace := kind, trace
			t.Run(kind.String()+"/"+trace, func(t *testing.T) {
				ff, slow := runPair(t, s, kind, trace, false)
				if slow.HorizonSkippedTicks != 0 {
					t.Fatalf("NoFastForward run skipped %d ticks", slow.HorizonSkippedTicks)
				}
				if ff.HorizonSkippedTicks > 0 {
					engaged = true
				}
				zeroSchedulingDiagnostics(ff)
				zeroSchedulingDiagnostics(slow)
				if !reflect.DeepEqual(ff, slow) {
					t.Errorf("fast-forward result differs from tick-by-tick:\nfast: %+v\nslow: %+v", ff, slow)
				}
			})
		}
	}
	if !engaged {
		t.Error("fast-forward never engaged on any configuration; equivalence test is vacuous")
	}
}

// TestFastForwardEquivalenceCollecting repeats the equivalence check with
// dataset harvesting and series collection on, so epoch-boundary labeling
// and per-epoch snapshots are also proven exact.
func TestFastForwardEquivalenceCollecting(t *testing.T) {
	s := passthroughSuite(t)
	for _, kind := range []core.ModelKind{core.KindDozzNoC, core.KindPG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			ff, slow := runPair(t, s, kind, "blackscholes", true)
			zeroSchedulingDiagnostics(ff)
			zeroSchedulingDiagnostics(slow)
			if !reflect.DeepEqual(ff.Dataset, slow.Dataset) {
				t.Error("harvested datasets differ between fast-forward and tick-by-tick")
			}
			if !reflect.DeepEqual(ff.Series, slow.Series) {
				t.Error("epoch series differ between fast-forward and tick-by-tick")
			}
			if !reflect.DeepEqual(ff, slow) {
				t.Errorf("fast-forward result differs from tick-by-tick:\nfast: %+v\nslow: %+v", ff, slow)
			}
		})
	}
}

// TestFastForwardSkipsIdleTime pins the engine's reason to exist: on a
// sparse trace under a gating model, a large share of simulated time is
// covered by the closed-form path.
func TestFastForwardSkipsIdleTime(t *testing.T) {
	s := passthroughSuite(t)
	res, err := s.RunBenchmark(core.KindDozzNoC, "blackscholes", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HorizonSkippedTicks == 0 {
		t.Fatal("fast-forward never engaged on a sparse trace")
	}
	if frac := float64(res.HorizonSkippedTicks) / float64(res.Ticks); frac < 0.10 {
		t.Errorf("fast-forward covered only %.1f%% of %d ticks; expected a sparse trace to be mostly idle", 100*frac, res.Ticks)
	}
}
