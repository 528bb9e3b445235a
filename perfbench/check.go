package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values: the smallest value with at least p% of the samples at or
// below it. values need not be sorted; it is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest hashes a stream of deterministic result fields. Floats enter by
// their exact bit pattern, so any change to a simulated value changes
// the digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}

func (d *digest) str(s string) {
	d.ints(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// record is the deterministic part of one simulation's outcome: the
// fields that are bit-identical for a given configuration whatever the
// engine's scheduling (skips, active set, shards). The same record is
// built from a sim.Result and from a sweep row, so a sweep job and a
// direct replay of it can be compared field by field.
type record struct {
	Ticks            int64
	Drained          bool
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsDelivered   int64
	AvgLatencyTicks  float64
	LatencyP50       int64
	LatencyP99       int64
	LatencyMax       int64
	Throughput       float64
	StaticJ          float64
	DynamicJ         float64
	OffFraction      float64
	WakeupFraction   float64
	Gatings          int64
	Wakes            int64
	BreakevenMet     int64
	ModeSwitches     int64
	EpochDecisions   int64
}

func recordOf(r *sim.Result) record {
	return record{
		Ticks: r.Ticks, Drained: r.Drained,
		PacketsInjected: r.PacketsInjected, PacketsDelivered: r.PacketsDelivered, FlitsDelivered: r.FlitsDelivered,
		AvgLatencyTicks: r.AvgLatencyTicks, LatencyP50: r.Latency.P50, LatencyP99: r.Latency.P99, LatencyMax: r.Latency.Max,
		Throughput: r.Throughput, StaticJ: r.StaticJ, DynamicJ: r.DynamicJ,
		OffFraction: r.OffFraction, WakeupFraction: r.WakeupFraction,
		Gatings: r.Policy.Gatings, Wakes: r.Policy.Wakes, BreakevenMet: r.Policy.BreakevenMet,
		ModeSwitches: r.Policy.ModeSwitches, EpochDecisions: r.Policy.EpochDecisions,
	}
}

func recordOfRow(r *sweep.Row) record {
	return record{
		Ticks: r.Ticks, Drained: r.Drained,
		PacketsInjected: r.PacketsInjected, PacketsDelivered: r.PacketsDelivered, FlitsDelivered: r.FlitsDelivered,
		AvgLatencyTicks: r.AvgLatencyTicks, LatencyP50: r.LatencyP50, LatencyP99: r.LatencyP99, LatencyMax: r.LatencyMax,
		Throughput: r.Throughput, StaticJ: r.StaticJ, DynamicJ: r.DynamicJ,
		OffFraction: r.OffFraction, WakeupFraction: r.WakeupFraction,
		Gatings: r.Gatings, Wakes: r.Wakes, BreakevenMet: r.BreakevenMet,
		ModeSwitches: r.ModeSwitches, EpochDecisions: r.EpochDecisions,
	}
}

func (d *digest) record(r record) {
	drained := int64(0)
	if r.Drained {
		drained = 1
	}
	d.ints(r.Ticks, drained, r.PacketsInjected, r.PacketsDelivered, r.FlitsDelivered,
		r.LatencyP50, r.LatencyP99, r.LatencyMax,
		r.Gatings, r.Wakes, r.BreakevenMet, r.ModeSwitches, r.EpochDecisions)
	d.floats(r.AvgLatencyTicks, r.Throughput, r.StaticJ, r.DynamicJ, r.OffFraction, r.WakeupFraction)
}

// result digests a Result's record plus the per-router detail the sweep
// rows do not carry.
func (d *digest) result(r *sim.Result) {
	d.str(r.Model)
	d.record(recordOf(r))
	d.floats(r.ModeResidency[:]...)
	d.floats(r.RouterOffFraction...)
	d.floats(r.RouterAvgMode...)
	d.ints(r.Policy.ModeDecisions[:]...)
}

// diag reads an int64 scheduling diagnostic of a Result by field name,
// returning 0 when the field does not exist. The engine's diagnostics
// are the part of Result most likely to be renamed or deleted, and the
// benchmark must keep building across such a change.
func diag(r *sim.Result, name string) int64 {
	f := reflect.ValueOf(r).Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Int64 {
		return 0
	}
	return f.Int()
}

// setIntField sets an int field of the struct ptr points to, if the
// field exists (see diag for why the benchmark names such knobs only by
// string).
func setIntField(ptr any, name string, v int) {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	if f.IsValid() && f.CanSet() && f.Kind() == reflect.Int {
		f.SetInt(int64(v))
	}
}

// checker counts operations and correctness checks attempted and
// failed; every failure feeds failed_frac.
type checker struct {
	attempted, failed int
	msgs              []string
}

// op counts one operation or check, failed unless ok.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// run counts one simulation run: it fails on an error, a run that did
// not drain, or a lost packet.
func (c *checker) run(what string, r *sim.Result, err error) {
	switch {
	case err != nil:
		c.op(false, "%s: %v", what, err)
	default:
		c.op(r.Drained && r.PacketsDelivered == r.PacketsInjected,
			"%s: drained=%v delivered %d of %d packets", what, r.Drained, r.PacketsDelivered, r.PacketsInjected)
	}
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.msgs {
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, m)
		}
	}
}
