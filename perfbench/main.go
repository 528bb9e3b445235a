// Command perfbench is the repository's benchmark. It runs one named
// workload for a given number of seconds, repeating the workload's
// fixed work, checks every output, and prints its metrics by name with
// their units; the last line of standard output is one JSON object.
// With --trace 1 it instead reports per-layer numbers from spans it
// records around each call into the program's layers. README.md says
// why each workload exists and which numbers each layer should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-8x8 --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// scratchDir holds everything a run writes; run.sh builds into the same
// directory, which the repository ignores.
const scratchDir = ".bench_build"

// setupRounds is how many times set-up is repeated; setup_s is the
// median.
const setupRounds = 5

// workload describes one benchmark workload.
type workload struct {
	name string
	// tail is the latency percentile reported as op_tail_us, the highest
	// that leaves at least ten of one repetition's operations beyond it.
	tail  float64
	setup func(seed int64) (job, error)
}

var workloads = []workload{
	{"paper-8x8", 80, newPaper},         // 57 sim runs per repetition
	{"sweep-matrix", 90, newSweep},      // 120 rows per repetition
	{"cosim-lockstep", 99, newLockstep}, // 4010 advances per repetition
}

// refSeed is the seed whose result digests reference.json records.
const refSeed = 1

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-8x8, sweep-matrix or cosim-lockstep")
	seed := flag.Int64("seed", refSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds (at least one repetition runs)")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	writeRef := flag.Bool("write-reference", false, "record this run's digest in perfbench/reference.json (seed 1 only)")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *traced < 0 || *traced > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostInfo()

	// Set up several times; keep the last.
	var j job
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if j != nil {
			j.close()
		}
		t0 := time.Now()
		var err error
		j, err = wl.setup(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer j.close()

	// Measure: repeat the fixed work until the time is up. A traced run
	// alternates untraced and traced repetitions so both see the same
	// machine state.
	var plain, tracedOuts []*outcome
	ck := &checker{}
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start) >= time.Duration(*seconds)*time.Second
		if enough && len(plain) > 0 && (*traced == 0 || len(tracedOuts) > 0) {
			break
		}
		var tr *tracer
		if *traced == 1 && i%2 == 1 {
			tr = newTracer()
		}
		out, err := j.rep(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d: %v\n", wl.name, i, err)
			ck.op(false, "repetition %d: %v", i, err)
			break
		}
		ck.merge(&out.check)
		if tr == nil {
			plain = append(plain, out)
		} else {
			tracedOuts = append(tracedOuts, out)
		}
	}
	all := append(append([]*outcome(nil), plain...), tracedOuts...)
	if len(plain) == 0 || (*traced == 1 && len(tracedOuts) == 0) {
		fmt.Fprintln(os.Stderr, "perfbench: no complete repetition")
		return 1
	}

	// Every repetition must give the same outputs, and at the reference
	// seed the outputs recorded in reference.json.
	for i, o := range all[1:] {
		ck.op(o.digest == all[0].digest, "repetition %d digest %s differs from %s", i+1, o.digest, all[0].digest)
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		return 1
	}
	if *seed == ref.Seed && !*writeRef {
		want := ref.Digests[wl.name]
		ck.op(all[0].digest == want, "digest %s, reference %q", all[0].digest, want)
	}

	metrics := map[string]metric{}
	units := map[string]string{}
	if *traced == 0 {
		for _, m := range endToEnd {
			units[m.name] = m.unit
		}
		var walls, rates, p50, tail []float64
		for _, o := range plain {
			walls = append(walls, o.wall.Seconds())
			rates = append(rates, float64(len(o.ops))/o.wall.Seconds())
			p50 = append(p50, percentile(o.ops, 50))
			tail = append(tail, percentile(o.ops, wl.tail))
		}
		put := func(k string, v float64) { metrics[k] = metric{v, units[k]} }
		put("setup_s", median(setups))
		put("wall_s", median(walls))
		put("ops_per_s", median(rates))
		put("op_p50_us", median(p50))
		put("op_tail_us", median(tail))
		put("max_rss_mb", maxRSSMB())
		put("ok_frac", 1-float64(ck.failed)/float64(ck.attempted))
		fmt.Printf("repetitions %d, %d operations each; op_tail_us is p%g; wall_s per repetition %.4g\n",
			len(plain), len(plain[0].ops), wl.tail, walls)
	} else {
		vals := map[string][]float64{}
		for _, o := range tracedOuts {
			for k, v := range o.layer {
				vals[k] = append(vals[k], v)
			}
			vals["bench.unattributed_ratio"] = append(vals["bench.unattributed_ratio"], unattributed(o.spans))
		}
		m := map[string]float64{}
		for k, v := range vals {
			m[k] = median(v)
		}
		var pw, tw []float64
		for _, o := range plain {
			pw = append(pw, o.wall.Seconds())
		}
		for _, o := range tracedOuts {
			tw = append(tw, o.wall.Seconds())
		}
		m["bench.trace_overhead_ratio"] = median(tw) / median(pw)
		lck := &checker{}
		if err := j.layers(m, lck); err != nil {
			lck.op(false, "layer replay: %v", err)
		}
		ck.merge(lck)
		for _, pl := range perLayer {
			metrics[pl.name] = metric{m[pl.name], pl.unit}
		}
		fmt.Printf("repetitions %d untraced, %d traced\n", len(plain), len(tracedOuts))
	}

	if *writeRef {
		if *seed != ref.Seed {
			fmt.Fprintln(os.Stderr, "perfbench: -write-reference needs --seed", ref.Seed)
			return 2
		}
		if ref.Digests == nil {
			ref.Digests = map[string]string{}
		}
		ref.Digests[wl.name] = all[0].digest
		b, _ := json.MarshalIndent(ref, "", "  ")
		if err := os.WriteFile(filepath.Join("perfbench", "reference.json"), append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	for _, msg := range ck.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	for _, line := range all[0].info {
		fmt.Println(line)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("digest %s\n", all[0].digest)
	fmt.Printf("failed_frac %g (%d of %d operations and checks)\n", float64(ck.failed)/float64(ck.attempted), ck.failed, ck.attempted)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}

	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}
	var spans []span
	if len(tracedOuts) > 0 {
		spans = tracedOuts[len(tracedOuts)-1].spans
	}
	writeReport(wl.name, *seed, *traced, host, res, all[0].info, ck.msgs, spans)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeReport keeps the run's full record — host, metrics, modelled
// outputs, failures and the last traced repetition's spans — under
// scratchDir. A failure to write it is reported, not fatal.
func writeReport(name string, seed int64, traced int, host map[string]any, res result, info, failures []string, spans []span) {
	dir := filepath.Join(scratchDir, "reports")
	rep := map[string]any{
		"workload": name, "seed": seed, "trace": traced, "host": host, "result": res,
		"modelled": info, "failures": failures, "spans": spans,
	}
	b, err := json.Marshal(rep)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
	}
}
