// Package obs is the engine's observability layer: event counters folded
// at epoch boundaries, Chrome trace_event phase tracing (tracer.go), and
// a live expvar/pprof HTTP endpoint (server.go).
//
// The design contract is that observability must never perturb results
// and must cost almost nothing when disabled: every hook the engine and
// controller call is a branch on a nil pointer, hooks only bump counters
// in a staging lane, and everything else — residency deltas, energy
// deltas, prediction accuracy, expvar gauges — is derived at epoch folds,
// after the engine's catch-up barrier, from state that is already exact
// (DESIGN.md §5e).
package obs

import (
	"math"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Observer bundles the optional observability sinks a run can attach
// (sim.Config.Obs). Either field may be nil independently: Metrics
// collects counters and the per-epoch series, Tracer emits engine-phase
// spans. A nil *Observer disables the layer entirely.
type Observer struct {
	Metrics *Metrics
	Tracer  *Tracer
}

// New returns an Observer with a fresh Metrics and no Tracer — the common
// "counters only" configuration.
func New() *Observer { return &Observer{Metrics: NewMetrics()} }

// lane stages the event counters and histograms the hooks bump between
// epoch folds. Its counters are cumulative over the run; each fold takes
// the delta against the previous fold's copy.
type lane struct {
	Gatings      int64 // Active -> Inactive transitions
	Wakes        int64 // Inactive -> Wakeup transitions
	WakeOffTicks int64 // summed lengths of the gating periods those wakes ended
	ModeSwitches int64 // voltage/frequency switches started
	LazyTicks    int64 // router-ticks covered by deferred catch-up
	Sweeps       int64 // active-set sweeps executed

	AbsErr    Hist // per-decision |measured - predicted| IBU, ErrScale fixed-point
	Latency   Hist // delivered packet latency, base ticks
	WakeStall Hist // per-wake stall duration (wakeup-state ticks), base ticks
}

// Epoch is one epoch's folded rollup: the event and scheduling deltas
// that accrued since the previous fold, plus the residency and energy
// movement derived from the meters. It is the obs-side superset of
// stats.EpochSample (which keeps the CSV schema the figure pipeline
// pins).
type Epoch struct {
	Tick int64

	// Event deltas drained from the lane.
	Gatings      int64
	Wakes        int64
	ModeSwitches int64
	LazyTicks    int64

	// Engine scheduling delta.
	HorizonSkippedTicks int64

	// ResidencyDelta is the network-total base ticks spent per billing
	// state this epoch: index 0 = gated, 1 = wakeup (the wakeup-stall
	// ticks), 2..6 = modes M3..M7.
	ResidencyDelta [2 + power.NumActiveModes]int64

	// Prediction accuracy. AvgIBU is the measured network-mean IBU of the
	// closing epoch; AvgPredIBU the mean IBU predicted at this boundary
	// for the next epoch (over routers that ran the selector); PredAbsErr
	// the mean |measured - predicted| for routers whose previous-boundary
	// prediction matured this epoch. Both means are 0 when no router ran
	// the selector.
	AvgIBU     float64
	AvgPredIBU float64
	PredAbsErr float64

	// Energy movement this epoch.
	StaticJDelta  float64
	DynamicJDelta float64
}

// WakeStallTicks returns the epoch's wakeup-residency delta: base ticks
// routers spent charging up before they could move flits.
func (e *Epoch) WakeStallTicks() int64 { return e.ResidencyDelta[1] }

// Snapshot is a cumulative, self-contained view of a run's metrics,
// published atomically for the live endpoint (at every epoch fold while a
// Server is open, and at the end of every run) and returned by
// Metrics.Snapshot for tests.
type Snapshot struct {
	Run    int64  `json:"run"`   // 1-based bind count of the Metrics
	Label  string `json:"label"` // run label (model/trace)
	Tick   int64  `json:"tick"`  // last folded tick
	Epochs int64  `json:"epochs"`

	Gatings      int64 `json:"gatings"`
	Wakes        int64 `json:"wakes"`
	WakeOffTicks int64 `json:"wake_off_ticks"`
	ModeSwitches int64 `json:"mode_switches"`

	// Scheduling mirrors, accumulated independently of the engine's own
	// Result diagnostics so the two can be cross-checked.
	LazyTicks           int64 `json:"lazy_router_ticks"`
	HorizonSkippedTicks int64 `json:"horizon_skipped_ticks"`
	Sweeps              int64 `json:"sweeps"`         // active-set sweeps executed
	ActiveRouters       int   `json:"active_routers"` // active-set size at the last fold

	ResidencyTicks [2 + power.NumActiveModes]int64 `json:"residency_ticks"`

	EpochDecisions int64   `json:"epoch_decisions"`
	MeanAbsPredErr float64 `json:"mean_abs_pred_err"` // |measured - predicted| IBU

	// Prediction-quality layer (all deterministic for a given run
	// configuration — they survive Deterministic() and ride in sweep
	// rows). DecisionsByMode[i] counts boundary decisions that chose
	// active mode M3+i.
	DecisionsByMode [power.NumActiveModes]int64 `json:"decisions_by_mode"`

	// Mispredict-cost attribution: a matured decision whose chosen mode
	// sits below the mode the measured IBU called for is an
	// under-prediction (the router was run too slow or gated and traffic
	// arrived — UnderPredStallTicks charges the wakeup stalls the router
	// accrued that epoch as the latency-penalty proxy); a chosen mode
	// above the ideal is an over-prediction (a missed gating/slow-down
	// opportunity — OverPredStaticWasteJ charges the static-power excess
	// of the chosen mode over the ideal for one epoch as the attributed
	// waste estimate). RouterUnderPred/RouterOverPred are the per-router
	// decision counts behind the totals.
	UnderPredDecisions   int64   `json:"underpred_decisions"`
	OverPredDecisions    int64   `json:"overpred_decisions"`
	UnderPredStallTicks  int64   `json:"underpred_stall_ticks"`
	OverPredStaticWasteJ float64 `json:"overpred_static_waste_j"`
	RouterUnderPred      []int64 `json:"router_underpred,omitempty"`
	RouterOverPred       []int64 `json:"router_overpred,omitempty"`

	// Drift detection (Page–Hinkley over the per-epoch folded mean abs
	// error, drift.go). DriftEvents counts fires this run; LastDriftTick
	// is the boundary tick of the most recent fire (0 if none).
	DriftEvents   int64 `json:"pred_drift_events"`
	LastDriftTick int64 `json:"pred_drift_last_tick"`

	// Folded histograms (hist.go): per-decision absolute IBU prediction
	// error in ErrScale fixed-point units, delivered-packet latency in
	// base ticks, and per-wake stall duration in base ticks.
	AbsErrHist    HistSnapshot `json:"pred_abs_err_hist"`
	LatencyHist   HistSnapshot `json:"packet_latency_hist"`
	WakeStallHist HistSnapshot `json:"wake_stall_hist"`

	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`

	TicksPerSec float64 `json:"ticks_per_sec"` // simulated base ticks per wall second since the run began
}

// WakeStallTicks returns cumulative wakeup-residency ticks.
func (s *Snapshot) WakeStallTicks() int64 { return s.ResidencyTicks[1] }

// Deterministic returns a copy with every field that can differ between
// reruns of the same configuration zeroed: the wall-clock rate and the
// Metrics bind count. What remains — event totals, scheduling mirrors,
// residency, prediction accuracy, epoch count — is bit-exact for a given
// run configuration, which is what lets the sweep orchestrator embed an
// epoch-fold capture in result rows that must be byte-identical across
// resumed and uninterrupted jobs.
func (s Snapshot) Deterministic() Snapshot {
	d := s
	d.Run = 0
	d.TicksPerSec = 0
	return d
}

// Metrics accumulates one run's observability counters. A Metrics is
// bound to a run by the engine (BindRun), written by the engine's hooks,
// and folded at epoch boundaries. It implements policy.EventObserver. It
// is not safe to share across concurrently executing runs; rebinding
// resets per-run state, so one Metrics may observe a sequence of runs.
type Metrics struct {
	lane     lane
	lastLane lane // lane counters at the previous fold
	nR       int

	run       int64
	label     string
	started   time.Time
	seriesOn  bool
	series    *stats.Series
	epochs    []Epoch
	lastFold  int64
	totals    Snapshot
	prevRes   [2 + power.NumActiveModes]int64
	prevStat  float64
	prevDyn   float64
	prevPHits int64
	prevPMiss int64

	// Horizon-skip mirror (the per-epoch delta is taken at folds).
	horizonTicks, lastHorizTicks int64

	// Prediction bookkeeping (EpochDecision fires only from the boundary
	// sweep).
	lastPred   []float64 // previous boundary's prediction per router, NaN if none
	predSum    float64   // predictions made since the last fold
	predN      int64
	predErrSum float64 // |measured - matured prediction| since the last fold
	predErrN   int64
	errSumRun  float64 // run totals for the snapshot's mean
	errNRun    int64

	// Mispredict-cost attribution (EpochDecision). lastMode is the mode
	// each router's previous boundary chose — the decision that matures
	// against this boundary's measured IBU. wakeStall accumulates each
	// router's wakeup-stall ticks in RouterWoken; stallSeen is the cursor
	// that turns it into per-decision deltas.
	epochTicks int64
	lastMode   []power.Mode
	wakeStall  []int64
	stallSeen  []int64

	// Drift detection over the per-epoch folded mean abs error
	// (drift.go). driftCfg survives rebinding; drift state does not.
	driftCfg DriftConfig
	drift    driftState
}

// NewMetrics returns an unbound Metrics; the engine binds it at run
// start.
func NewMetrics() *Metrics { return &Metrics{} }

// BindRun attaches the Metrics to a run of numRouters routers, optionally
// with a per-epoch stats.Series (the engine sources Result.Series from
// it). All per-run state is reset; the bind count survives so a
// long-lived Observer can tell runs apart on the live endpoint. The
// per-router buffers are reused across runs (snapshots copy them), so a
// Metrics observing a sequence of runs allocates them once.
func (m *Metrics) BindRun(label string, numRouters int, epochTicks int64, collectSeries bool) {
	m.run++
	m.label = label
	m.started = time.Now()
	m.nR = numRouters
	m.lane, m.lastLane = lane{}, lane{}
	m.seriesOn = collectSeries
	m.series = nil
	if collectSeries {
		m.series = &stats.Series{EpochTicks: epochTicks}
	}
	m.epochs = nil
	m.lastFold = 0
	m.totals = Snapshot{
		Run: m.run, Label: label,
		RouterUnderPred: zeroed(m.totals.RouterUnderPred, numRouters),
		RouterOverPred:  zeroed(m.totals.RouterOverPred, numRouters),
	}
	m.prevRes = [2 + power.NumActiveModes]int64{}
	m.prevStat, m.prevDyn = 0, 0
	m.prevPHits, m.prevPMiss = 0, 0
	m.horizonTicks, m.lastHorizTicks = 0, 0
	m.lastPred = zeroed(m.lastPred, numRouters)
	for i := range m.lastPred {
		m.lastPred[i] = math.NaN()
	}
	m.predSum, m.predN = 0, 0
	m.predErrSum, m.predErrN = 0, 0
	m.errSumRun, m.errNRun = 0, 0
	m.epochTicks = epochTicks
	m.lastMode = zeroed(m.lastMode, numRouters)
	m.wakeStall = zeroed(m.wakeStall, numRouters)
	m.stallSeen = zeroed(m.stallSeen, numRouters)
	m.drift.reset(m.driftCfg)
	setDriftGauge(0)
}

// zeroed returns s resliced to n zero elements, allocating only when its
// capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetDrift configures the Page–Hinkley drift detector (zero fields mean
// defaults; a negative Lambda disables detection). The configuration
// survives rebinding — set it once when building the Observer — but the
// detector state itself resets per run. Call before or between runs,
// not mid-run.
func (m *Metrics) SetDrift(cfg DriftConfig) {
	m.driftCfg = cfg
	m.drift.reset(cfg)
}

// DriftEvents returns the drift-detector fire count of the current run.
func (m *Metrics) DriftEvents() int64 { return m.totals.DriftEvents }

// Series returns the per-epoch series collected for the current run (nil
// unless BindRun asked for one).
func (m *Metrics) Series() *stats.Series { return m.series }

// Epochs returns the per-epoch rollups folded so far this run.
func (m *Metrics) Epochs() []Epoch { return m.epochs }

// --- policy.EventObserver ---

// RouterGated implements policy.EventObserver.
func (m *Metrics) RouterGated(routerID int) { m.lane.Gatings++ }

// RouterWoken implements policy.EventObserver. stallTicks is the base
// ticks the router will spend in the wakeup state before its first
// post-wake local cycle — the traffic-visible stall the wake costs.
func (m *Metrics) RouterWoken(routerID int, offTicks, stallTicks int64) {
	l := &m.lane
	l.Wakes++
	l.WakeOffTicks += offTicks
	l.WakeStall.Observe(stallTicks)
	m.wakeStall[routerID] += stallTicks
}

// ModeSwitched implements policy.EventObserver.
func (m *Metrics) ModeSwitched(routerID int, from, to power.Mode) {
	m.lane.ModeSwitches++
}

// EpochDecision implements policy.EventObserver: it accrues the
// predicted-IBU mean for this boundary, matures the previous boundary's
// prediction against the measured IBU, and attributes the matured
// decision's mispredict cost. The comparison is mode-space: the mode the
// previous boundary actually chose against the mode the measured IBU
// would have called for (policy.ModeForIBU). A chosen mode below the
// ideal is an under-prediction, charged the router's wakeup stalls since
// its last decision; above is an over-prediction, charged one epoch of
// the static-power excess over the ideal mode. It fires only from the
// engine's boundary sweep.
func (m *Metrics) EpochDecision(routerID int, measured, predicted float64, mode power.Mode) {
	m.predSum += predicted
	m.predN++
	m.totals.EpochDecisions++
	m.totals.DecisionsByMode[mode.Index()]++
	if lp := m.lastPred[routerID]; !math.IsNaN(lp) {
		e := math.Abs(measured - lp)
		m.predErrSum += e
		m.predErrN++
		m.errSumRun += e
		m.errNRun++
		m.lane.AbsErr.Observe(int64(e*ErrScale + 0.5))
		ideal := policy.ModeForIBU(measured)
		switch chosen := m.lastMode[routerID]; {
		case chosen < ideal:
			m.totals.UnderPredDecisions++
			m.totals.RouterUnderPred[routerID]++
			m.totals.UnderPredStallTicks += m.wakeStall[routerID] - m.stallSeen[routerID]
		case chosen > ideal:
			m.totals.OverPredDecisions++
			m.totals.RouterOverPred[routerID]++
			m.totals.OverPredStaticWasteJ += float64(m.epochTicks) *
				(power.StaticWatts(chosen) - power.StaticWatts(ideal)) * timing.TickSeconds
		}
	}
	m.stallSeen[routerID] = m.wakeStall[routerID]
	m.lastPred[routerID] = predicted
	m.lastMode[routerID] = mode
}

// PacketLatency records one delivered packet's latency in base ticks.
func (m *Metrics) PacketLatency(ticks int64) { m.lane.Latency.Observe(ticks) }

// --- engine hooks (all branch-on-nil at the call site) ---

// OnSweep counts one active-set sweep.
func (m *Metrics) OnSweep() { m.lane.Sweeps++ }

// OnLazyCatchUp credits router-ticks covered by a deferred catch-up.
func (m *Metrics) OnLazyCatchUp(delta int64) { m.lane.LazyTicks += delta }

// OnHorizonSkip records an event-horizon jump of delta ticks (every
// router buffer empty, so the window was skipped in closed form).
func (m *Metrics) OnHorizonSkip(delta int64) { m.horizonTicks += delta }

// EpochFold carries the engine-side gauge readings into FoldEpoch.
type EpochFold struct {
	Now            int64   // the boundary tick
	SumIBU         float64 // summed per-router IBU of the closing epoch
	FlitsDelivered int64   // cumulative network counter
	ActiveRouters  int     // active-set population at the boundary
	PoolHits       int64   // cumulative flit/packet pool hits
	PoolMisses     int64
}

// FoldEpoch closes one epoch: it drains the lane into the run totals (the
// engine calls it after Commit and the catch-up barrier), derives the
// residency/energy deltas from the meters, builds the stats.EpochSample
// the series and figure pipeline consume, feeds the drift detector, and
// publishes the live snapshot while a Server is open. meters holds one
// meter per router. The sample computation is field-for-field
// the engine's pre-obs code, so series CSVs are byte-identical. It
// reports whether the drift detector fired at this fold, so the engine
// can emit a tracer instant event for it.
func (m *Metrics) FoldEpoch(f EpochFold, ctrl *policy.Controller, meters []power.Meter) (driftFired bool) {
	ep := Epoch{Tick: f.Now}
	if m.nR > 0 {
		ep.AvgIBU = f.SumIBU / float64(m.nR)
	}

	var sample stats.EpochSample
	sample.Tick = f.Now
	sample.AvgIBU = ep.AvgIBU
	sample.FlitsDelivered = f.FlitsDelivered
	// One pass over the routers reads each router's power state and sums
	// its meter: energy (in router order, as the series always has) and
	// the network-wide residency from the integer counters.
	var res [2 + power.NumActiveModes]int64
	for r := 0; r < m.nR; r++ {
		switch ctrl.State(r) {
		case policy.Inactive:
			sample.OffRouters++
		case policy.Wakeup:
			sample.WakingRouters++
		default:
			sample.ModeRouters[ctrl.Mode(r).Index()]++
		}
		mt := &meters[r]
		sample.StaticJ += mt.StaticJoules()
		sample.DynamicJ += mt.DynamicJoules()
		for i, t := range mt.Residency() {
			res[i] += t
		}
	}
	if m.series != nil {
		m.series.Add(sample)
	}

	// Residency movement since the previous fold.
	for i := range res {
		ep.ResidencyDelta[i] = res[i] - m.prevRes[i]
	}
	m.prevRes = res
	m.totals.ResidencyTicks = res
	ep.StaticJDelta = sample.StaticJ - m.prevStat
	ep.DynamicJDelta = sample.DynamicJ - m.prevDyn
	m.prevStat, m.prevDyn = sample.StaticJ, sample.DynamicJ

	// Drain the lane (cumulative) against the previous fold.
	m.foldLane(&ep)

	ep.HorizonSkippedTicks = m.horizonTicks - m.lastHorizTicks
	m.lastHorizTicks = m.horizonTicks

	if m.predN > 0 {
		ep.AvgPredIBU = m.predSum / float64(m.predN)
	}
	matured := m.predErrN > 0
	if matured {
		ep.PredAbsErr = m.predErrSum / float64(m.predErrN)
	}
	m.predSum, m.predN = 0, 0
	m.predErrSum, m.predErrN = 0, 0

	// Page–Hinkley over the folded mean abs error; epochs with no matured
	// prediction (warm-up, non-ML models) carry no signal and are skipped.
	if matured && m.drift.observe(ep.PredAbsErr) {
		driftFired = true
		m.totals.DriftEvents++
		m.totals.LastDriftTick = f.Now
		setDriftGauge(1)
	}

	m.epochs = append(m.epochs, ep)
	m.lastFold = f.Now
	m.publish(f, liveServers.Load() > 0)
	return driftFired
}

// foldLane copies the (cumulative) lane counters into the run totals and
// writes the delta since the previous fold into ep.
func (m *Metrics) foldLane(ep *Epoch) {
	cur := &m.lane
	if ep != nil {
		ep.Gatings = cur.Gatings - m.lastLane.Gatings
		ep.Wakes = cur.Wakes - m.lastLane.Wakes
		ep.ModeSwitches = cur.ModeSwitches - m.lastLane.ModeSwitches
		ep.LazyTicks = cur.LazyTicks - m.lastLane.LazyTicks
	}
	m.lastLane = *cur
	m.totals.Gatings = cur.Gatings
	m.totals.Wakes = cur.Wakes
	m.totals.WakeOffTicks = cur.WakeOffTicks
	m.totals.ModeSwitches = cur.ModeSwitches
	m.totals.LazyTicks = cur.LazyTicks
	m.totals.Sweeps = cur.Sweeps
}

// publish refreshes the cumulative totals and, when live is set, the
// live expvar snapshot. A fold republishes only while a Server is open
// (the deep copy is most of a fold's cost and nobody else reads it); the
// end of a run always publishes, so the endpoint shows the last run.
func (m *Metrics) publish(f EpochFold, live bool) {
	m.totals.Tick = f.Now
	m.totals.Epochs = int64(len(m.epochs))
	m.totals.HorizonSkippedTicks = m.horizonTicks
	m.totals.ActiveRouters = f.ActiveRouters
	m.totals.PoolHits = f.PoolHits
	m.totals.PoolMisses = f.PoolMisses
	if m.errNRun > 0 {
		m.totals.MeanAbsPredErr = m.errSumRun / float64(m.errNRun)
	}
	if live {
		snap := m.snapshotCopy()
		setLiveSnapshot(&snap)
	}
}

// snapshotCopy deep-copies the totals so the returned Snapshot shares no
// slice backing with the live fold state. The histograms come from the
// lane as of the last fold (lastLane), converted only here, and the
// tick rate is taken now, over the wall time since BindRun.
func (m *Metrics) snapshotCopy() Snapshot {
	snap := m.totals
	if el := time.Since(m.started).Seconds(); el > 0 {
		snap.TicksPerSec = float64(snap.Tick) / el
	}
	snap.RouterUnderPred = append([]int64(nil), m.totals.RouterUnderPred...)
	snap.RouterOverPred = append([]int64(nil), m.totals.RouterOverPred...)
	snap.AbsErrHist = m.lastLane.AbsErr.Snapshot()
	snap.LatencyHist = m.lastLane.Latency.Snapshot()
	snap.WakeStallHist = m.lastLane.WakeStall.Snapshot()
	return snap
}

// FinishRun folds events that accrued after the last epoch boundary
// (partial epochs, post-drain catch-up) into the totals and republishes.
// The engine calls it once, after its final catch-up flush.
func (m *Metrics) FinishRun(ticks int64, f EpochFold) {
	m.foldLane(nil)
	f.Now = ticks
	m.publish(f, true)
}

// Snapshot returns the cumulative totals as of the last fold. Call it
// from the engine goroutine or after the run; the live endpoint reads
// the atomically published copy instead.
func (m *Metrics) Snapshot() Snapshot {
	return m.snapshotCopy()
}
