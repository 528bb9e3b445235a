package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sweep-matrix sizing: the trace window of every run (the sweep default
// is 120 000 ticks) and the worker pool.
const (
	sweepHorizon = 600
	sweepWorkers = 2
)

// sweepJob runs one 120-row matrix through sweep.RunJob.
type sweepJob struct {
	dir  string
	spec *sweep.Spec
	runs []sweep.Run
	n    int
	// lastRows are the rows of the latest traced repetition, which the
	// layer replay is checked against.
	lastRows []sweep.Row
}

func newSweep(seed int64) (job, error) {
	if err := warmUp(topology.NewMesh(16, 16), sweepHorizon, seed); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "sweep-")
	if err != nil {
		return nil, err
	}
	j := &sweepJob{dir: dir}
	// The spec goes through a file and sweep.Load, as with cmd/sweep.
	spec := map[string]any{
		"topos":    []string{"mesh4x4", "mesh8x8", "mesh16x16"},
		"models":   []string{"baseline", "pg"},
		"benches":  exp.TestBenchNames(),
		"seeds":    []int64{seed, seed + 1},
		"compress": []int64{1, 2},
		"horizon":  sweepHorizon,
		"workers":  sweepWorkers,
	}
	b, err := json.Marshal(spec)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "spec.json"), b, 0o644)
	}
	if err == nil {
		j.spec, err = sweep.Load(filepath.Join(dir, "spec.json"))
	}
	if err == nil {
		j.runs, err = j.spec.Expand()
	}
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *sweepJob) close() { os.RemoveAll(j.dir) }

// rowClock timestamps each progress line RunJob logs, one per row
// written.
type rowClock struct {
	mu    sync.Mutex
	times []time.Time
}

func (c *rowClock) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.times = append(c.times, time.Now())
	c.mu.Unlock()
	return len(p), nil
}

func (j *sweepJob) rep(tr *tracer) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	ck := &out.check
	j.n++
	path := filepath.Join(j.dir, fmt.Sprintf("rows-%d.jsonl", j.n))
	defer os.Remove(path)
	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	clock := &rowClock{}
	start := time.Now()
	root := tr.begin("sweep-matrix", "", -1)
	var report *sweep.Report
	var err error
	tr.call(root, "sweep.RunJob", "sweep", func() {
		report, err = sweep.RunJob(j.spec, path, sweep.Options{Workers: sweepWorkers, Log: clock})
	})
	tr.end(root)
	out.wall = time.Since(start)
	if err != nil {
		ck.op(false, "sweep job: %v", err)
		return nil, err
	}
	// A row's latency is the time the pool took to write the last
	// sweepWorkers rows: rows are written in matrix order, so the plain
	// interval between two rows is near zero whenever the second one
	// finished first, and its distribution splits in two.
	var intervals []float64
	for i, t := range clock.times {
		from, prev := start, start
		if i >= sweepWorkers {
			from = clock.times[i-sweepWorkers]
		}
		if i > 0 {
			prev = clock.times[i-1]
		}
		out.ops = append(out.ops, float64(t.Sub(from))/1e3)
		intervals = append(intervals, float64(t.Sub(prev))/1e6)
	}

	// The cmd/sweep -check test: every row present, in matrix order, no
	// torn tail.
	rows, _, torn, err := sweep.ReadResults(path)
	if err != nil {
		return nil, err
	}
	complete := !torn && report.Done() && len(rows) == len(j.runs)
	for i := range rows {
		complete = complete && i < len(j.runs) && rows[i].ID == j.runs[i].ID
	}
	ck.op(complete, "results file incomplete: %d of %d rows, torn tail %v", len(rows), len(j.runs), torn)
	d := newDigest()
	for i := range rows {
		r := &rows[i]
		ck.op(r.Drained && r.PacketsDelivered == r.PacketsInjected,
			"row %s: drained=%v delivered %d of %d packets", r.ID, r.Drained, r.PacketsDelivered, r.PacketsInjected)
		d.str(r.ID)
		d.record(recordOfRow(r))
	}
	out.digest = d.sum()

	if tr != nil {
		m := out.layer
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		m["sweep.rows"] = float64(len(rows))
		m["sweep.row_interval_p50_ms"] = percentile(intervals, 50)
		m["sweep.row_interval_p99_ms"] = percentile(intervals, 99)
		m["sweep.bytes_per_row"] = ratio(float64(st.Size()), float64(len(rows)))
		mem.put(m)
		out.spans = tr.spans
		j.lastRows = rows
	}
	return out, nil
}

// layers replays the matrix serially through the layers RunJob calls —
// core.Suite.Trace for each distinct trace, core.Suite.RunBenchmarkObs
// for each row — timing each call, and checks that every replayed run
// matches the job's row.
func (j *sweepJob) layers(m map[string]float64, ck *checker) error {
	tr := newTracer()
	root := tr.begin("sweep replay", "", -1)
	suites := map[string]*core.Suite{}
	generated := map[string]bool{}
	o := obs.New()
	var sc simCounts
	var entries int
	for i := range j.runs {
		run := &j.runs[i]
		key := fmt.Sprintf("%s/%d", run.Topo, run.Seed)
		s := suites[key]
		if s == nil {
			topo, err := cli.ParseTopo(run.Topo)
			if err != nil {
				return err
			}
			opts := core.Options{Horizon: sweepHorizon, EpochTicks: run.EpochTicks, Seed: run.Seed, PunchHops: run.PunchHops}
			setIntField(&opts, "Shards", 1) // the sweep's serial default
			s = core.NewSuite(topo, opts)
			suites[key] = s
		}
		if tk := key + "/" + run.Bench; !generated[tk] {
			generated[tk] = true
			var t *traffic.Trace
			var err error
			tr.call(root, "core.Suite.Trace", "traffic", func() { t, err = s.Trace(run.Bench) })
			if err != nil {
				return err
			}
			entries += len(t.Entries)
		}
		var res *sim.Result
		var err error
		tr.call(root, "core.Suite.RunBenchmarkObs", "sim", func() {
			res, err = s.RunBenchmarkObs(run.Kind, run.Bench, run.Compress, o)
		})
		ck.run("replay "+run.ID, res, err)
		if err != nil {
			return err
		}
		sc.add(res)
		if i < len(j.lastRows) {
			ck.op(recordOf(res) == recordOfRow(&j.lastRows[i]), "replay %s differs from the job's row", run.ID)
		}
	}
	tr.end(root)
	self := layerSelf(tr.spans)
	m["traffic.generate_s"] = self["traffic"]
	m["traffic.entries"] = float64(entries)
	m["traffic.ns_per_entry"] = ratio(self["traffic"]*1e9, float64(entries))
	sc.put(m, self["sim"])
	return nil
}
