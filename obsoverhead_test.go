package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// obsOverheadBound is the largest median obs-on/obs-off process CPU-time
// ratio the observability layer may cost (DESIGN.md §5e).
const obsOverheadBound = 1.02

// obsRunsPerPair is how many off/on runs, interleaved, make one pair: a
// pair's ratio is its summed on time over its summed off time.
const obsRunsPerPair = 4

// TestObsOverhead is the `make obs-overhead` gate; it runs only when
// DOZZNOC_OBS_PAIRS gives a pair count (at least 10). On the
// BenchmarkMediumLoad trace, for both scheduling arms, it measures
// alternating in-process pairs of runs with observability off and with
// an enabled-but-unsubscribed obs.Observer attached (no tracer, no
// endpoint reader), and fails if the median of the per-pair on/off
// ratios exceeds obsOverheadBound.
//
// Pairs instead of separate processes: the off and on runs of a pair
// interleave in one process, so a shared host's slow phases hit both,
// and which goes first alternates, so drift inside a pair cancels across
// pairs. Runs are charged process CPU time, not wall time, so time spent
// descheduled by other tenants does not count. The median discards the
// pairs a hiccup split.
func TestObsOverhead(t *testing.T) {
	env := os.Getenv("DOZZNOC_OBS_PAIRS")
	if env == "" {
		t.Skip("set DOZZNOC_OBS_PAIRS (>= 10) to run the obs-overhead gate")
	}
	pairs, err := strconv.Atoi(env)
	if err != nil || pairs < 10 {
		t.Fatalf("DOZZNOC_OBS_PAIRS=%q: need an integer >= 10", env)
	}
	topo := topology.NewMesh(8, 8)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.002, 30_000, 1)
	for _, arm := range []struct {
		name        string
		noActiveSet bool
	}{{"activeset", false}, {"noactiveset", true}} {
		observer := obs.New()
		// cpu returns the process CPU time (user+system, every thread, so
		// the garbage collector's background work counts) one run takes.
		cpu := func(o *obs.Observer) float64 {
			runtime.GC()
			before := processCPU(t)
			if _, err := sim.Run(sim.Config{
				Topo:        topo,
				Spec:        policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:       tr,
				NoActiveSet: arm.noActiveSet,
				Obs:         o,
			}); err != nil {
				t.Fatal(err)
			}
			return processCPU(t) - before
		}
		cpu(nil) // warm-up
		ratios := make([]float64, pairs)
		for i := range ratios {
			var off, on float64
			for k := 0; k < obsRunsPerPair; k++ {
				if (i+k)%2 == 0 {
					off += cpu(nil)
					on += cpu(observer)
				} else {
					on += cpu(observer)
					off += cpu(nil)
				}
			}
			ratios[i] = on / off
		}
		sort.Float64s(ratios)
		median := ratios[pairs/2]
		if pairs%2 == 0 {
			median = (ratios[pairs/2-1] + ratios[pairs/2]) / 2
		}
		t.Logf("%s: median obs-on/off ratio %.4f over %d pairs (range %.4f-%.4f)",
			arm.name, median, pairs, ratios[0], ratios[pairs-1])
		if median > obsOverheadBound {
			t.Errorf("%s: observability costs %.2f%% (median ratio %.4f), bound %.0f%%",
				arm.name, 100*(median-1), median, 100*(obsOverheadBound-1))
		}
	}
}

// processCPU returns the user+system CPU seconds the process has used.
func processCPU(t *testing.T) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
