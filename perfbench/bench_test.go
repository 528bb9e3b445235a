package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct{ p, want float64 }{{10, 1}, {50, 5}, {55, 6}, {90, 9}, {99, 10}, {100, 10}, {0.1, 1}}
	for _, c := range cases {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if median(nil) != 0 {
		t.Error("empty median")
	}
}

func digestOf(f func(d *digest)) string {
	d := newDigest()
	f(d)
	return d.sum()
}

func TestDigestIsExactAndOrdered(t *testing.T) {
	a := digestOf(func(d *digest) { d.ints(1, 2); d.floats(0.5) })
	if b := digestOf(func(d *digest) { d.ints(1, 2); d.floats(0.5) }); a != b {
		t.Error("same stream, different digests")
	}
	if b := digestOf(func(d *digest) { d.ints(2, 1); d.floats(0.5) }); a == b {
		t.Error("digest ignores order")
	}
	if b := digestOf(func(d *digest) { d.ints(1, 2); d.floats(math.Nextafter(0.5, 1)) }); a == b {
		t.Error("digest misses a one-ulp float change")
	}
	if digestOf(func(d *digest) { d.floats(0) }) == digestOf(func(d *digest) { d.floats(math.Copysign(0, -1)) }) {
		t.Error("digest confuses 0 and -0")
	}
	if digestOf(func(d *digest) { d.str("ab"); d.str("c") }) == digestOf(func(d *digest) { d.str("a"); d.str("bc") }) {
		t.Error("string boundaries are ambiguous")
	}
}

func TestRecordFromResultMatchesResultDigest(t *testing.T) {
	r := &sim.Result{Model: "m", Ticks: 10, Drained: true, PacketsInjected: 3, PacketsDelivered: 3, StaticJ: 1.5}
	r2 := *r
	r2.FastForwardedTicks = 7 // a scheduling diagnostic: not part of the contract
	if digestOf(func(d *digest) { d.result(r) }) != digestOf(func(d *digest) { d.result(&r2) }) {
		t.Error("scheduling diagnostics leak into the digest")
	}
	r2.StaticJ = 1.25
	if digestOf(func(d *digest) { d.result(r) }) == digestOf(func(d *digest) { d.result(&r2) }) {
		t.Error("digest misses an energy change")
	}
}

func TestDiagAndSetIntField(t *testing.T) {
	r := &sim.Result{LazySkippedRouterTicks: 42}
	if got := diag(r, "LazySkippedRouterTicks"); got != 42 {
		t.Errorf("diag = %d", got)
	}
	if got := diag(r, "NoSuchCounter"); got != 0 {
		t.Errorf("missing field read as %d", got)
	}
	if got := diag(r, "Drained"); got != 0 {
		t.Errorf("non-int64 field read as %d", got)
	}
	var o core.Options
	setIntField(&o, "VCs", 3)
	setIntField(&o, "NoSuchKnob", 3)
	if o.VCs != 3 {
		t.Errorf("VCs = %d", o.VCs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: "sim", Parent: 0, Start: 10, End: 40},
		{Name: "b", Layer: "sim", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Layer: "traffic", Parent: 1, Start: 15, End: 25},
		{Name: "agg", Layer: "mcsim", Parent: 2, Start: 30, End: 35, Agg: true},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50, 30 - 10, 30 - 5, 10, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if math.Abs(layers["sim"]-45e-9) > 1e-15 || math.Abs(layers["traffic"]-10e-9) > 1e-15 || math.Abs(layers["mcsim"]-5e-9) > 1e-15 {
		t.Errorf("layer self times %v", layers)
	}
	if got := unattributed(spans); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unattributed = %g, want 0.4", got)
	}
	if got := spanTotal(spans, "a"); got != 30e-9 {
		t.Errorf("spanTotal = %g", got)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call(tr.begin("x", "", -1), "y", "sim", func() { ran = true })
	tr.aggregate(0, "z", "mcsim", time.Second)
	if !ran {
		t.Error("nil tracer did not run the call")
	}
	tr = newTracer()
	root := tr.begin("root", "", -1)
	tr.call(root, "f", "sim", func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans %+v", tr.spans)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units the
// benchmark reports equal to those BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []m) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s %s, BENCHMARK.json %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json has %d", len(workloads), len(spec.Workloads))
	}
	for i := range workloads {
		if workloads[i].name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s, BENCHMARK.json %s", i, workloads[i].name, spec.Workloads[i].Name)
		}
	}
}
