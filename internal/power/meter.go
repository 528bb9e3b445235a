package power

import "repro/internal/timing"

// Meter accumulates static and dynamic energy for one router (and its
// outgoing links) across a simulation, plus the per-mode residency
// histogram used by Fig 7 and the power-gating event log used to audit
// T-Breakeven compliance.
//
// Static energy is accounted in integer base ticks per billing state and
// converted to joules on demand. Because the stored state is a set of
// integer counters, billing n ticks in one AddStatic call is exactly —
// bit for bit — equal to n single-tick calls, which is what lets the
// simulation engine fast-forward quiescent stretches without perturbing
// energy results.
type Meter struct {
	dynamicJ float64

	// residencyTicks[s] counts base ticks spent with the meter's state s:
	// index 0 = inactive, 1 = wakeup, 2..6 = modes M3..M7.
	residencyTicks [2 + NumActiveModes]int64
	// wakeTicks[t] counts wakeup base ticks charging toward active mode
	// M3+t (wakeup leakage depends on the wake target).
	wakeTicks [NumActiveModes]int64

	hops int64
}

// stateIndex maps a mode (Inactive/Wakeup/M3..M7) to a residency slot.
func stateIndex(m Mode) int {
	switch m {
	case Inactive:
		return 0
	case Wakeup:
		return 1
	}
	return 2 + m.Index()
}

// AddStatic bills ticks base ticks of leakage for a router in state m
// (waking into wakeTarget when m == Wakeup) and records residency.
func (mt *Meter) AddStatic(m Mode, wakeTarget Mode, ticks int64) {
	mt.residencyTicks[stateIndex(m)] += ticks
	if m == Wakeup {
		mt.wakeTicks[wakeTarget.Index()] += ticks
	}
}

// AddHop bills one flit hop at mode m.
func (mt *Meter) AddHop(m Mode) {
	mt.dynamicJ += DynamicPJPerHop(m) * 1e-12
	mt.hops++
}

// StaticJoules returns accumulated leakage energy. It is a pure function
// of the integer residency counters, so it is deterministic regardless of
// how the ticks were batched.
// Waking into mode M3+i leaks Table[i].StaticWatts, the same as running
// in it (StaticWattsWaking), so both terms read the table directly.
func (mt *Meter) StaticJoules() float64 {
	j := 0.0
	for i := range Table {
		w := Table[i].StaticWatts
		j += float64(mt.wakeTicks[i]) * w
		j += float64(mt.residencyTicks[2+i]) * w
	}
	return j * timing.TickSeconds
}

// DynamicJoules returns accumulated switching energy.
func (mt *Meter) DynamicJoules() float64 { return mt.dynamicJ }

// TotalJoules returns static + dynamic energy.
func (mt *Meter) TotalJoules() float64 { return mt.StaticJoules() + mt.dynamicJ }

// Hops returns the number of flit hops billed.
func (mt *Meter) Hops() int64 { return mt.hops }

// ResidencyTicks returns base ticks spent in state m (Wakeup residency is
// keyed by Wakeup regardless of target).
func (mt *Meter) ResidencyTicks(m Mode) int64 { return mt.residencyTicks[stateIndex(m)] }

// Residency returns the base ticks spent per billing state: index 0 =
// inactive, 1 = wakeup, 2..6 = modes M3..M7.
func (mt *Meter) Residency() [2 + NumActiveModes]int64 { return mt.residencyTicks }

// OffTicks returns base ticks spent power-gated.
func (mt *Meter) OffTicks() int64 { return mt.residencyTicks[0] }

// Add merges another meter into mt (used to aggregate per-router meters
// into a network total).
func (mt *Meter) Add(o *Meter) {
	mt.dynamicJ += o.dynamicJ
	mt.hops += o.hops
	for i := range mt.residencyTicks {
		mt.residencyTicks[i] += o.residencyTicks[i]
	}
	for i := range mt.wakeTicks {
		mt.wakeTicks[i] += o.wakeTicks[i]
	}
}

// Reset zeroes the meter.
func (mt *Meter) Reset() { *mt = Meter{} }
