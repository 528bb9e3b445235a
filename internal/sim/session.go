// Session is the engine's co-simulation entry point: a persistent run
// whose injections arrive incrementally from an external master (the
// cosim daemon, a driving simulator) instead of a pre-built trace, and
// whose clock advances in caller-driven windows instead of one shot.
//
// A Session wraps the exact engine Run uses — newEngine builds it,
// stepUntil advances it, finish closes it — so a session that schedules
// the same injections at the same ticks as a trace and then drains is
// bit-identical to Run on that trace (session_test.go pins this for all
// five paper models). Sessions are single-threaded: the caller
// serializes Schedule/Advance/Drain/Snapshot/Close.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/flit"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SessionStats is a point-in-time summary of a session: cumulative
// traffic counters, the exact integer latency sum over delivered
// packets, and the energy meters summed in router order (the same
// accumulation order Result uses, so the floats are bit-identical to a
// Result taken at the same tick).
type SessionStats struct {
	Tick             int64
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsDelivered   int64
	LatencySumTicks  int64 // sum of delivered packets' latencies, base ticks
	LatencyCount     int64 // delivered packets contributing to the sum
	AvgLatencyTicks  float64
	StaticJ          float64
	DynamicJ         float64

	// Prediction-quality summary (see sim.Result for semantics), sourced
	// from the session's attached obs.Metrics; all zero when the session
	// runs without one.
	EpochDecisions       int64
	MeanAbsPredErr       float64
	UnderPredDecisions   int64
	OverPredDecisions    int64
	UnderPredStallTicks  int64
	OverPredStaticWasteJ float64
	PredDriftEvents      int64
}

// Session is one persistent mesh + policy model instance. Create with
// NewSession, drive with Schedule/Advance/Drain, read with Snapshot,
// and release with Close.
type Session struct {
	e      *engine
	closed bool
	res    *Result // cached by Close
}

// NewSession builds a session from a Config with nil Trace and nil
// Workload (anything else is rejected); all other knobs — topology,
// policy spec, VCs, link latency, observability — mean exactly what they mean
// for Run. MaxTicks defaults to effectively unbounded for sessions;
// per-call budgets bound the work instead.
func NewSession(cfg Config) (*Session, error) {
	cfg.forSession = true
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{e: e}, nil
}

// Now returns the next base tick the session will process: tick 0 on a
// fresh session, and the first tick of the next window after an
// Advance/Drain.
func (s *Session) Now() int64 { return s.e.tick }

// Cores returns the topology's terminal count (valid Schedule indices
// are [0, Cores)).
func (s *Session) Cores() int { return s.e.cfg.Topo.NumCores() }

// Drained reports whether the last Drain stopped because the schedule
// was exhausted and the network empty (cleared by the next Schedule).
func (s *Session) Drained() bool { return s.e.drained }

// Schedule queues one packet injection at absolute tick at (>= Now) from
// core src to core dst. Entries may be scheduled out of order between
// calls; the session keeps its pending schedule time-sorted, stable on
// ties, exactly like a trace.
func (s *Session) Schedule(at int64, src, dst int, kind flit.Kind) error {
	if s.closed {
		return errors.New("sim: session closed")
	}
	e := s.e
	if at < e.tick {
		return fmt.Errorf("sim: schedule at tick %d is in the past (now %d)", at, e.tick)
	}
	cores := s.Cores()
	if src < 0 || src >= cores || dst < 0 || dst >= cores {
		return fmt.Errorf("sim: schedule cores (%d,%d) outside [0,%d)", src, dst, cores)
	}
	if src == dst {
		return fmt.Errorf("sim: schedule sends core %d to itself", src)
	}
	// Compact the consumed prefix before it can pin the backing array
	// for a long-running session (amortized O(1), same idiom as the
	// network's head-indexed FIFOs).
	if e.cursor > 1024 && e.cursor > len(e.entries)/2 {
		n := copy(e.entries, e.entries[e.cursor:])
		e.entries = e.entries[:n]
		e.cursor = 0
	}
	i := len(e.entries)
	for i > e.cursor && e.entries[i-1].Time > at {
		i--
	}
	e.entries = append(e.entries, traffic.Entry{})
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = traffic.Entry{Time: at, Src: src, Dst: dst, Kind: kind}
	e.drained = false
	return nil
}

// Pending returns the number of scheduled injections not yet consumed.
func (s *Session) Pending() int { return len(s.e.entries) - s.e.cursor }

// Advance processes exactly n base ticks (clamped at MaxTicks),
// regardless of drain state — an idle fabric still bills static energy,
// runs epoch boundaries and makes gating/DVFS decisions, which is the
// point of advancing wall-clock time between transfers. It returns the
// ticks actually advanced.
func (s *Session) Advance(n int64) (int64, error) {
	if s.closed {
		return 0, errors.New("sim: session closed")
	}
	if n < 0 {
		return 0, fmt.Errorf("sim: advance by %d ticks", n)
	}
	e := s.e
	start := e.tick
	limit := start + n
	if limit > e.cfg.MaxTicks || limit < start {
		limit = e.cfg.MaxTicks
	}
	e.stepUntil(limit, false)
	return e.tick - start, nil
}

// Drain advances until the pending schedule is exhausted and the network
// has emptied — Run's termination rule — or until budget ticks have been
// spent (budget <= 0 selects DefaultWorkloadMaxTicks). It reports
// whether the drain completed.
func (s *Session) Drain(budget int64) (bool, error) {
	if s.closed {
		return false, errors.New("sim: session closed")
	}
	e := s.e
	if e.drained {
		return true, nil
	}
	if budget <= 0 {
		budget = DefaultWorkloadMaxTicks
	}
	limit := e.tick + budget
	if limit > e.cfg.MaxTicks || limit < e.tick {
		limit = e.cfg.MaxTicks
	}
	return e.stepUntil(limit, true), nil
}

// Snapshot catches every deferred router up to Now (exact by the same
// closed forms the engine's own barriers use) and returns the session's
// cumulative counters and energy totals.
func (s *Session) Snapshot() SessionStats {
	e := s.e
	if !s.closed && e.lazy {
		e.catchUpAll(e.tick)
	}
	var total power.Meter
	for i := range e.meter {
		total.Add(&e.meter[i])
	}
	st := SessionStats{
		Tick:             e.tick,
		PacketsInjected:  e.net.PacketsInjected(),
		PacketsDelivered: e.net.PacketsDelivered(),
		FlitsDelivered:   e.net.FlitsDelivered(),
		LatencySumTicks:  e.sumLatency,
		LatencyCount:     e.nLatency,
		StaticJ:          total.StaticJoules(),
		DynamicJ:         total.DynamicJoules(),
	}
	if st.LatencyCount > 0 {
		st.AvgLatencyTicks = float64(st.LatencySumTicks) / float64(st.LatencyCount)
	}
	if e.obsM != nil {
		snap := e.obsM.Snapshot()
		st.EpochDecisions = snap.EpochDecisions
		st.MeanAbsPredErr = snap.MeanAbsPredErr
		st.UnderPredDecisions = snap.UnderPredDecisions
		st.OverPredDecisions = snap.OverPredDecisions
		st.UnderPredStallTicks = snap.UnderPredStallTicks
		st.OverPredStaticWasteJ = snap.OverPredStaticWasteJ
		st.PredDriftEvents = snap.DriftEvents
	}
	return st
}

// EstimateLatency returns a cheap deterministic latency estimate in base
// ticks for a packet injected now: per-hop pipeline and wire delay along
// the routing path, tail-flit serialization, and a backlog penalty for
// packets already queued at the source core. It is the co-sim reply an
// external master consumes as backpressure before the true latency is
// known; it never touches simulation state.
func (s *Session) EstimateLatency(src, dst int, kind flit.Kind) (int64, error) {
	cores := s.Cores()
	if src < 0 || src >= cores || dst < 0 || dst >= cores {
		return 0, fmt.Errorf("sim: estimate cores (%d,%d) outside [0,%d)", src, dst, cores)
	}
	t := s.e.cfg.Topo
	r, last := t.RouterOf(src), t.RouterOf(dst)
	var hops int64
	for r != last {
		r = topology.NextRouter(t, r, dst)
		hops++
	}
	flits := int64(kind.Flits())
	est := (hops + 1) * int64(s.e.cfg.Pipeline)
	est += hops * s.e.cfg.LinkTicks
	est += flits - 1
	est += int64(s.e.net.QueuedPackets(src)) * flits
	return est, nil
}

// Close finalizes the session — final catch-up, observability fold and
// tracer flush — and returns the full run Result, built
// by the same code Run uses (so a drained session replaying a trace is
// DeepEqual to Run on it). Close is idempotent; later calls return the
// cached Result.
func (s *Session) Close() *Result {
	if s.closed {
		return s.res
	}
	e := s.e
	e.finish()
	s.res = e.result(e.tick, e.drained)
	s.closed = true
	return s.res
}
