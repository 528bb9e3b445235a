// Results: the JSONL row schema and the crash-tolerant reader.
//
// One Row is appended per completed run, in canonical matrix order, each
// line fsync'd before the next is written. Because the writer never
// reorders and never buffers more than the out-of-order completions, the
// file on disk is always a byte prefix of the uninterrupted job's output
// plus at most one torn final line — the only two states ReadResults has
// to understand.

package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Row is one completed run's result record. It holds only fields that
// are bit-exact for a given run configuration: the embedded obs snapshot
// has its wall-clock fields zeroed (obs.Snapshot.Deterministic), so a
// resumed job reproduces the uninterrupted job's bytes exactly.
type Row struct {
	ID         string `json:"id"`
	Topo       string `json:"topo"`
	Bench      string `json:"bench"`
	Model      string `json:"model"`
	Seed       int64  `json:"seed"`
	EpochTicks int64  `json:"epoch_ticks"`
	Compress   int64  `json:"compress"`
	PunchHops  int    `json:"punch_hops"`
	Lambda     string `json:"lambda"`

	Ticks            int64   `json:"ticks"`
	Drained          bool    `json:"drained"`
	PacketsInjected  int64   `json:"packets_injected"`
	PacketsDelivered int64   `json:"packets_delivered"`
	FlitsDelivered   int64   `json:"flits_delivered"`
	AvgLatencyTicks  float64 `json:"avg_latency_ticks"`
	LatencyP50       int64   `json:"latency_p50"`
	LatencyP95       int64   `json:"latency_p95"`
	LatencyP99       int64   `json:"latency_p99"`
	LatencyMax       int64   `json:"latency_max"`
	Throughput       float64 `json:"throughput"`
	StaticJ          float64 `json:"static_j"`
	DynamicJ         float64 `json:"dynamic_j"`
	EDP              float64 `json:"edp"`
	OffFraction      float64 `json:"off_fraction"`
	WakeupFraction   float64 `json:"wakeup_fraction"`
	Gatings          int64   `json:"gatings"`
	Wakes            int64   `json:"wakes"`
	BreakevenMet     int64   `json:"breakeven_met"`
	ModeSwitches     int64   `json:"mode_switches"`
	EpochDecisions   int64   `json:"epoch_decisions"`

	// Prediction-quality columns (sim.Result semantics: deterministic,
	// populated only for observed runs — zero otherwise). Top-level so
	// downstream row consumers need not dig into the embedded snapshot.
	MeanAbsPredErr       float64 `json:"mean_abs_pred_err"`
	UnderPredDecisions   int64   `json:"underpred_decisions"`
	OverPredDecisions    int64   `json:"overpred_decisions"`
	UnderPredStallTicks  int64   `json:"underpred_stall_ticks"`
	OverPredStaticWasteJ float64 `json:"overpred_static_waste_j"`
	PredDriftEvents      int64   `json:"pred_drift_events"`

	// Obs is the per-run epoch-fold capture (deterministic subset; nil
	// when the run carried no observer).
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// makeRow folds a run's result and observer snapshot into its record.
func makeRow(r *Run, res *sim.Result, snap *obs.Snapshot) Row {
	row := Row{
		ID:         r.ID,
		Topo:       r.Topo,
		Bench:      r.Bench,
		Model:      r.Model,
		Seed:       r.Seed,
		EpochTicks: r.EpochTicks,
		Compress:   r.Compress,
		PunchHops:  r.PunchHops,
		Lambda:     r.Lambda,

		Ticks:            res.Ticks,
		Drained:          res.Drained,
		PacketsInjected:  res.PacketsInjected,
		PacketsDelivered: res.PacketsDelivered,
		FlitsDelivered:   res.FlitsDelivered,
		AvgLatencyTicks:  res.AvgLatencyTicks,
		LatencyP50:       res.Latency.P50,
		LatencyP95:       res.Latency.P95,
		LatencyP99:       res.Latency.P99,
		LatencyMax:       res.Latency.Max,
		Throughput:       res.Throughput,
		StaticJ:          res.StaticJ,
		DynamicJ:         res.DynamicJ,
		EDP:              res.EDP(),
		OffFraction:      res.OffFraction,
		WakeupFraction:   res.WakeupFraction,
		Gatings:          res.Policy.Gatings,
		Wakes:            res.Policy.Wakes,
		BreakevenMet:     res.Policy.BreakevenMet,
		ModeSwitches:     res.Policy.ModeSwitches,
		EpochDecisions:   res.Policy.EpochDecisions,

		MeanAbsPredErr:       res.MeanAbsPredErr,
		UnderPredDecisions:   res.UnderPredDecisions,
		OverPredDecisions:    res.OverPredDecisions,
		UnderPredStallTicks:  res.UnderPredStallTicks,
		OverPredStaticWasteJ: res.OverPredStaticWasteJ,
		PredDriftEvents:      res.PredDriftEvents,
	}
	if snap != nil {
		det := snap.Deterministic()
		row.Obs = &det
	}
	return row
}

// encodeRow renders one JSONL line (including the trailing newline).
// encoding/json emits struct fields in declaration order and formats
// floats deterministically, so identical rows encode to identical bytes.
func encodeRow(row *Row) ([]byte, error) {
	b, err := json.Marshal(row)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode row %s: %w", row.ID, err)
	}
	return append(b, '\n'), nil
}

// ReadResults loads a results file, tolerating the torn final line a
// mid-write crash leaves behind. It returns the decoded rows, the byte
// offset just past the last intact line (the truncation point for a
// resuming job), and whether trailing bytes were discarded. A missing
// file is zero rows, not an error.
func ReadResults(path string) (rows []Row, validOff int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Final line has no terminator: torn mid-write.
			return rows, validOff, true, nil
		}
		line := data[:nl]
		var row Row
		if err := json.Unmarshal(line, &row); err != nil || row.ID == "" {
			// A malformed line can only be the write that died (all
			// writes are sequential and fsync'd in order), so nothing
			// after it can be valid either.
			return rows, validOff, true, nil
		}
		rows = append(rows, row)
		validOff += int64(nl + 1)
		data = data[nl+1:]
	}
	return rows, validOff, false, nil
}
