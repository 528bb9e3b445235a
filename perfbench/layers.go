package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topology"
)

// job is one workload, set up and ready to repeat its fixed work.
type job interface {
	// rep runs the workload's fixed work once; tr is nil when untraced.
	rep(tr *tracer) (*outcome, error)
	// layers runs, once per traced run, the passes that measure layers
	// the repetition cannot time from outside (direct replays), adding
	// their metrics to m and their checks to ck.
	layers(m map[string]float64, ck *checker) error
	close()
}

// outcome is what one repetition produced.
type outcome struct {
	wall   time.Duration
	ops    []float64 // latency of each headline operation, µs
	check  checker
	digest string
	layer  map[string]float64 // per-layer numbers (traced repetitions)
	spans  []span             // traced repetitions
	info   []string           // deterministic modelled outputs
}

// perLayer lists every per-layer metric with its unit, in report order.
// A workload that does not call a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"traffic.generate_s", "s"}, {"traffic.entries", "count"}, {"traffic.ns_per_entry", "ns"},
	{"core.harvest_s", "s"}, {"core.harvest_runs", "count"}, {"core.dataset_rows", "count"},
	{"ml.train_s", "s"}, {"ml.fits", "count"},
	{"sim.run_s", "s"}, {"sim.runs", "count"}, {"sim.ticks", "count"}, {"sim.skipped_ticks", "count"},
	{"sim.skip_ratio", "ratio"}, {"sim.lazy_router_ticks", "count"}, {"sim.parallel_ticks", "count"},
	{"sim.flits", "count"}, {"sim.ns_per_tick", "ns"}, {"sim.ns_per_flit", "ns"},
	{"policy.epoch_decisions", "count"}, {"policy.gatings", "count"}, {"policy.wakes", "count"},
	{"policy.mode_switches", "count"}, {"network.packets", "count"},
	{"mcsim.run_s", "s"}, {"mcsim.tick_calls", "count"}, {"mcsim.tick_s", "s"}, {"mcsim.skip_calls", "count"},
	{"session.advance_s", "s"}, {"session.schedule_s", "s"}, {"session.estimate_s", "s"},
	{"session.snapshot_s", "s"}, {"session.calls", "count"},
	{"cosim.overhead_us_per_op", "us"}, {"cosim.bytes_per_op", "bytes"}, {"cosim.busy_replies", "count"},
	{"sweep.rows", "count"}, {"sweep.row_interval_p50_ms", "ms"}, {"sweep.row_interval_p99_ms", "ms"},
	{"sweep.bytes_per_row", "bytes"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_pause_s", "s"},
	{"bench.unattributed_ratio", "ratio"}, {"bench.trace_overhead_ratio", "ratio"},
}

// endToEnd lists every end-to-end metric with its unit.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"ops_per_s", "1/s"},
	{"op_p50_us", "us"}, {"op_tail_us", "us"}, {"max_rss_mb", "MB"}, {"ok_frac", "ratio"},
}

// simCounts sums the simulation-layer work counts of a set of runs.
type simCounts struct {
	runs, ticks, skipped, lazy, parallel, flits  int64
	decisions, gatings, wakes, switches, packets int64
}

func (c *simCounts) add(r *sim.Result) {
	c.runs++
	c.ticks += r.Ticks
	c.skipped += diag(r, "FastForwardedTicks") + diag(r, "HorizonSkippedTicks")
	c.lazy += diag(r, "LazySkippedRouterTicks")
	c.parallel += diag(r, "ParallelTicks")
	c.flits += r.FlitsDelivered
	c.decisions += r.Policy.EpochDecisions
	c.gatings += r.Policy.Gatings
	c.wakes += r.Policy.Wakes
	c.switches += r.Policy.ModeSwitches
	c.packets += r.PacketsDelivered
}

// put writes the counts, and the per-unit costs of runS seconds spent in
// sim.Run, into m.
func (c *simCounts) put(m map[string]float64, runS float64) {
	m["sim.run_s"] = runS
	m["sim.runs"] = float64(c.runs)
	m["sim.ticks"] = float64(c.ticks)
	m["sim.skipped_ticks"] = float64(c.skipped)
	m["sim.skip_ratio"] = ratio(float64(c.skipped), float64(c.ticks))
	m["sim.lazy_router_ticks"] = float64(c.lazy)
	m["sim.parallel_ticks"] = float64(c.parallel)
	m["sim.flits"] = float64(c.flits)
	m["sim.ns_per_tick"] = ratio(runS*1e9, float64(c.ticks))
	m["sim.ns_per_flit"] = ratio(runS*1e9, float64(c.flits))
	m["policy.epoch_decisions"] = float64(c.decisions)
	m["policy.gatings"] = float64(c.gatings)
	m["policy.wakes"] = float64(c.wakes)
	m["policy.mode_switches"] = float64(c.switches)
	m["network.packets"] = float64(c.packets)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta measures allocation and GC pause over a traced repetition.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) put(out map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out["runtime.alloc_mb"] = float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
	out["runtime.gc_pause_s"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e9
}

var errWarmUp = errors.New("warm-up run did not drain every packet")

// warmUp runs one full-size Baseline simulation of one test benchmark at
// the workload's mesh and trace window, so the engine's once-per-process
// lazy set-up and the heap's growth are paid during set-up, not in the
// first timed repetition.
func warmUp(topo topology.Topology, horizon, seed int64) error {
	s := core.NewSuite(topo, core.Options{Horizon: horizon, Seed: seed})
	res, err := s.RunBenchmark(core.KindBaseline, exp.TestBenchNames()[0], 1)
	if err != nil {
		return err
	}
	if !res.Drained || res.PacketsDelivered != res.PacketsInjected {
		return errWarmUp
	}
	return nil
}
