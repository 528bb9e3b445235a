package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flit"
	"repro/internal/mcsim"
	"repro/internal/ml"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// paper-8x8 sizing: the trace window of every generated trace, and the
// per-core instruction budget of the closed-loop multicore model (the
// paper-scale defaults are 120 000 ticks and 200 000 instructions).
const (
	paperHorizon      = 8000
	paperInstructions = 80_000
)

// paperJob is the cmd/experiments-shaped job: traces, reactive
// harvests, training, the five-model comparison and the closed loop,
// serially, with the engine's default settings.
type paperJob struct{ seed int64 }

func newPaper(seed int64) (job, error) {
	if err := warmUp(topology.NewMesh(8, 8), paperHorizon, seed); err != nil {
		return nil, err
	}
	return &paperJob{seed: seed}, nil
}

func (j *paperJob) close() {}

func (j *paperJob) layers(map[string]float64, *checker) error { return nil }

// mcsimProbe forwards every sim.Workload and traffic.NextInjector call
// to the multicore model, counting them and, when timed, timing Tick.
// Keeping NextInjector is what keeps the engine's horizon skips on.
type mcsimProbe struct {
	sys          *mcsim.System
	timed        bool
	ticks, skips int64
	tickTime     time.Duration
}

func (p *mcsimProbe) Tick(now int64, inject func(*flit.Packet)) {
	p.ticks++
	if !p.timed {
		p.sys.Tick(now, inject)
		return
	}
	t0 := time.Now()
	p.sys.Tick(now, inject)
	p.tickTime += time.Since(t0)
}

func (p *mcsimProbe) PacketDelivered(pk *flit.Packet, core int, now int64) {
	p.sys.PacketDelivered(pk, core, now)
}

func (p *mcsimProbe) Done() bool { return p.sys.Done() }

func (p *mcsimProbe) NextInjectionTick(now int64) int64 { return p.sys.NextInjectionTick(now) }

func (p *mcsimProbe) SkipTicks(now, delta int64) {
	p.skips++
	p.sys.SkipTicks(now, delta)
}

var (
	_ sim.Workload         = (*mcsimProbe)(nil)
	_ traffic.NextInjector = (*mcsimProbe)(nil)
)

func (j *paperJob) rep(tr *tracer) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	ck := &out.check
	d := newDigest()
	var sc simCounts
	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	start := time.Now()
	root := tr.begin("paper-8x8", "", -1)
	timedOp := func(f func()) {
		t0 := time.Now()
		f()
		out.ops = append(out.ops, float64(time.Since(t0))/1e3)
	}

	s := core.NewSuite(topology.NewMesh(8, 8), core.Options{Horizon: paperHorizon, Seed: j.seed})

	stage := tr.begin("generate traces", "", root)
	var entries int
	for _, p := range traffic.Profiles() {
		var t *traffic.Trace
		var err error
		tr.call(stage, "core.Suite.Trace", "traffic", func() { t, err = s.Trace(p.Name) })
		if err != nil {
			return nil, err
		}
		entries += len(t.Entries)
		d.str(p.Name)
		for _, e := range t.Entries {
			d.ints(e.Time, int64(e.Src), int64(e.Dst), int64(e.Kind))
		}
	}
	tr.end(stage)

	stage = tr.begin("harvest datasets", "", root)
	var names []string
	for _, split := range []traffic.Split{traffic.Train, traffic.Validation} {
		for _, p := range traffic.ProfilesBySplit(split) {
			names = append(names, p.Name)
		}
	}
	var rows int
	for _, k := range core.MLKinds {
		for _, name := range names {
			var ds *ml.Dataset
			var err error
			timedOp(func() {
				tr.call(stage, "core.Suite.Dataset", "core", func() { ds, err = s.Dataset(k, name) })
			})
			if err != nil {
				ck.op(false, "harvest %v on %s: %v", k, name, err)
				return nil, err
			}
			ck.op(ds.Len() > 0, "harvest %v on %s: empty dataset", k, name)
			rows += ds.Len()
			for i, x := range ds.X {
				d.floats(x...)
				d.floats(ds.Y[i])
			}
		}
	}
	tr.end(stage)

	stage = tr.begin("train", "", root)
	var fits int
	for _, k := range core.MLKinds {
		var rep *ml.TrainReport
		var err error
		tr.call(stage, "core.Suite.Train", "ml", func() { rep, err = s.Train(k) })
		if err != nil {
			return nil, err
		}
		fits += len(rep.Sweep)
		d.floats(rep.Best.Lambda)
		d.floats(rep.Best.Weights...)
	}
	tr.end(stage)

	stage = tr.begin("compare", "", root)
	var comps []*core.Comparison
	for _, bench := range exp.TestBenchNames() {
		c := &core.Comparison{Bench: bench, Factor: exp.DefaultCompression, Results: map[core.ModelKind]*sim.Result{}}
		for _, k := range core.AllKinds {
			var res *sim.Result
			var err error
			timedOp(func() {
				tr.call(stage, "core.Suite.RunBenchmark", "sim", func() {
					res, err = s.RunBenchmark(k, bench, exp.DefaultCompression)
				})
			})
			ck.run(fmt.Sprintf("%v on %s", k, bench), res, err)
			if err != nil {
				return nil, err
			}
			c.Results[k] = res
			sc.add(res)
			d.result(res)
		}
		comps = append(comps, c)
	}
	tr.end(stage)

	stage = tr.begin("closed loop", "", root)
	topo := topology.NewMesh(4, 4)
	params := mcsim.DefaultSystem(topo)
	params.Core.Instructions = paperInstructions
	params.Seed = j.seed
	specs := []policy.Spec{
		policy.Baseline(),
		policy.PowerGated(),
		policy.DVFSML(policy.ReactiveSelector{}),
		policy.DozzNoC(policy.ReactiveSelector{}),
		policy.MLTurbo(policy.ReactiveSelector{}, topo.NumRouters()),
	}
	var mcTicks, mcSkips int64
	for _, spec := range specs {
		sys, err := mcsim.New(params)
		if err != nil {
			return nil, err
		}
		probe := &mcsimProbe{sys: sys, timed: tr != nil}
		var res *sim.Result
		span := -1
		timedOp(func() {
			span = tr.begin("sim.Run", "sim", stage)
			res, err = sim.Run(sim.Config{Topo: topo, Spec: spec, Workload: probe})
			tr.end(span)
		})
		ck.run("closed loop "+spec.Name, res, err)
		if err != nil {
			return nil, err
		}
		tr.aggregate(span, "mcsim.System.Tick", "mcsim", probe.tickTime)
		mcTicks += probe.ticks
		mcSkips += probe.skips
		sc.add(res)
		d.result(res)
		st := sys.Stats()
		d.ints(st.MissesIssued, st.L2Misses, st.StalledTicks, sys.InstructionsRetired())
	}
	tr.end(stage)

	out.info = j.checkClaims(ck, comps)
	tr.end(root)
	out.wall = time.Since(start)
	out.digest = d.sum()

	if tr != nil {
		m := out.layer
		self := layerSelf(tr.spans)
		m["traffic.generate_s"] = self["traffic"]
		m["traffic.entries"] = float64(entries)
		m["traffic.ns_per_entry"] = ratio(self["traffic"]*1e9, float64(entries))
		m["core.harvest_s"] = self["core"]
		m["core.harvest_runs"] = float64(len(core.MLKinds) * len(names))
		m["core.dataset_rows"] = float64(rows)
		m["ml.train_s"] = self["ml"]
		m["ml.fits"] = float64(fits)
		sc.put(m, self["sim"])
		m["mcsim.run_s"] = spanTotal(tr.spans, "sim.Run")
		m["mcsim.tick_calls"] = float64(mcTicks)
		m["mcsim.tick_s"] = self["mcsim"]
		m["mcsim.skip_calls"] = float64(mcSkips)
		mem.put(m)
		out.spans = tr.spans
	}
	return out, nil
}

// paperAverages are the paper's published §IV-B2 averages on the 8×8
// mesh (the paper publishes no dynamic savings for PG, which has no
// DVFS, and reports a 1–5% latency increase for every model).
var paperAverages = map[core.ModelKind]struct{ static, dynamic string }{
	core.KindPG:      {"47%", "n/a"},
	core.KindDozzNoC: {"53%", "25%"},
}

// checkClaims averages each model's savings against Baseline over the
// compared benchmarks, checks the model orderings TestHeadlineSmall
// asserts, and returns the modelled DozzNoC and PG outputs as report
// lines beside the paper's averages.
func (j *paperJob) checkClaims(ck *checker, comps []*core.Comparison) []string {
	type avg struct{ static, dynamic, lat float64 }
	acc := map[core.ModelKind]*avg{}
	for _, k := range core.AllKinds {
		acc[k] = &avg{}
	}
	for _, c := range comps {
		for _, rel := range c.Relatives() {
			a := acc[rel.Kind]
			a.static += rel.StaticSavings / float64(len(comps))
			a.dynamic += rel.DynamicSavings / float64(len(comps))
			a.lat += (rel.LatencyRatio - 1) / float64(len(comps))
		}
	}
	ck.op(acc[core.KindBaseline].static == 0, "claim: Baseline saves no static energy (got %.4f)", acc[core.KindBaseline].static)
	ck.op(acc[core.KindPG].static > 0, "claim: PG saves static energy (got %.4f)", acc[core.KindPG].static)
	ck.op(acc[core.KindDozzNoC].static > acc[core.KindLEAD].static,
		"claim: DozzNoC saves more static energy than LEAD (%.4f vs %.4f)", acc[core.KindDozzNoC].static, acc[core.KindLEAD].static)
	ck.op(acc[core.KindLEAD].dynamic > 0, "claim: LEAD saves dynamic energy (got %.4f)", acc[core.KindLEAD].dynamic)

	lines := []string{fmt.Sprintf(
		"modelled outputs vs Baseline, mean over %d test benchmarks at compression x%d (8x8 mesh, horizon %d, seed %d); "+
			"the model is checked only against the paper's published averages, not per benchmark:",
		len(comps), exp.DefaultCompression, paperHorizon, j.seed)}
	for _, k := range []core.ModelKind{core.KindDozzNoC, core.KindPG} {
		a, p := acc[k], paperAverages[k]
		lines = append(lines, fmt.Sprintf(
			"  %-8s static savings %6.1f%% (paper %s)  dynamic savings %6.1f%% (paper %s)  latency change %+7.1f%% (paper +1..5%%)",
			k, 100*a.static, p.static, 100*a.dynamic, p.dynamic, 100*a.lat))
	}
	return lines
}
