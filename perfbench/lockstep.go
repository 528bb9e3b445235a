package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cosim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// cosim-lockstep sizing: windows of window ticks each end with one
// advance; the trace injects rate packets per core per tick (sparse
// load); tail more advances after the trace let the mesh drain; every
// queryEvery windows the client also sends a query.
const (
	lockWindows    = 4000
	lockWindow     = 200
	lockTail       = 10
	lockRate       = 0.0005
	lockQueryEvery = 100
	lockModel      = "dozznoc"
)

// Script operations.
const (
	opTransfer = iota
	opAdvance
	opQuery
)

type scriptOp struct {
	op       int
	src, dst int
	bytes    int64
	at       int64
}

// lockJob drives one 8×8 DozzNoC session in an in-process cosim.Daemon
// over a single in-memory connection, one request at a time.
type lockJob struct {
	script  []scriptOp
	packets int64 // packets the script injects
	genTime time.Duration
	entries int

	daemon *cosim.Daemon
	client *cosim.Client
	conn   *countingConn
	toSrv  *io.PipeWriter
	served chan error
	// The latest traced repetition's reply digest and client-side time in
	// cosim.Client calls, which the direct replay is compared against.
	lastRec    string
	lastClient float64
}

// countingConn is the client's end of the connection; it counts bytes
// both ways.
type countingConn struct {
	r       io.Reader
	w       io.Writer
	read    int64
	written int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.written += int64(n)
	return n, err
}

func newLockstep(seed int64) (job, error) {
	j := &lockJob{}
	t0 := time.Now()
	tr := traffic.Synthetic(topology.NewMesh(8, 8), traffic.UniformRandom, lockRate, lockWindows*lockWindow, seed)
	j.genTime = time.Since(t0)
	j.entries = len(tr.Entries)
	rng := rand.New(rand.NewSource(seed))
	next := 0
	for w := 0; w < lockWindows+lockTail; w++ {
		end := int64(w+1) * lockWindow
		for ; next < len(tr.Entries) && tr.Entries[next].Time < end; next++ {
			e := tr.Entries[next]
			// Mostly control-sized transfers, some multi-line ones.
			nbytes := int64(cosim.CtrlBytes)
			if rng.Intn(4) == 0 {
				nbytes = cosim.LineBytes * int64(1+rng.Intn(4))
			}
			j.script = append(j.script, scriptOp{op: opTransfer, src: e.Src, dst: e.Dst, bytes: nbytes, at: e.Time})
			j.packets += int64(len(cosim.ExpandTransfer(e.Src, e.Dst, nbytes, e.Time)))
		}
		j.script = append(j.script, scriptOp{op: opAdvance})
		if (w+1)%lockQueryEvery == 0 {
			j.script = append(j.script, scriptOp{op: opQuery})
		}
	}

	j.daemon = cosim.NewDaemon(cosim.Options{})
	srvR, cliW := io.Pipe()
	cliR, srvW := io.Pipe()
	j.toSrv = cliW
	j.served = make(chan error, 1)
	go func() {
		err := j.daemon.ServeConn(srvR, srvW)
		srvW.Close()
		j.served <- err
	}()
	j.conn = &countingConn{r: cliR, w: cliW}
	j.client = cosim.NewClient(j.conn)
	return j, nil
}

// requests is the number of requests one repetition sends: the script
// plus open-session and close-session.
func (j *lockJob) requests() float64 { return float64(len(j.script) + 2) }

// close ends the connection, waits for the daemon's handler to return,
// and shuts the daemon down.
func (j *lockJob) close() {
	j.toSrv.Close()
	<-j.served
	j.daemon.Close()
}

// replies digests the deterministic content of every reply in script
// order; the daemon run and the direct replay feed it the same way.
type replies struct{ d *digest }

func (r replies) stats(st *cosim.Stats) {
	r.d.ints(st.Tick, st.PacketsInjected, st.PacketsDelivered, st.FlitsDelivered, st.LatencySumTicks, st.LatencyCount,
		st.EpochDecisions, st.UnderPredDecisions, st.OverPredDecisions, st.UnderPredStallTicks, st.PredDriftEvents)
	r.d.floats(st.AvgLatencyTicks, st.StaticJ, st.DynamicJ, st.MeanAbsPredErr, st.OverPredStaticWasteJ)
}

func (r replies) transfer(packets int, est int64) { r.d.ints(int64(packets), est) }

func (r replies) advance(n, now int64, staticDJ, dynamicDJ float64) {
	r.d.ints(n, now)
	r.d.floats(staticDJ, dynamicDJ)
}

func (j *lockJob) rep(tr *tracer) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	ck := &out.check
	rec := replies{newDigest()}
	c := j.client
	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	read0, written0 := j.conn.read, j.conn.written
	busy := 0
	start := time.Now()
	root := tr.begin("cosim-lockstep", "", -1)

	var resp *cosim.Response
	var err error
	tr.call(root, "cosim.Client.Do", "cosim", func() {
		resp, err = c.Do(&cosim.Request{Op: cosim.OpOpenSession, Width: 8, Height: 8, Model: lockModel})
	})
	if err == nil && !resp.OK {
		err = fmt.Errorf("open-session: %s: %s", resp.Code, resp.Err)
	}
	ck.op(err == nil, "open-session: %v", err)
	if err != nil {
		return nil, err
	}
	sid := resp.Session
	for i := range j.script {
		s := &j.script[i]
		switch s.op {
		case opTransfer:
			var packets int
			var est int64
			tr.call(root, "cosim.Client.Transfer", "cosim", func() {
				packets, est, err = c.Transfer(sid, s.src, s.dst, s.bytes, s.at)
			})
			ck.op(err == nil, "transfer %d: %v", i, err)
			rec.transfer(packets, est)
		case opAdvance:
			t0 := time.Now()
			tr.call(root, "cosim.Client.Advance", "cosim", func() { resp, err = c.Advance(sid, lockWindow) })
			out.ops = append(out.ops, float64(time.Since(t0))/1e3)
			if err == nil && !resp.OK {
				busy++
				err = fmt.Errorf("%s reply", resp.Code)
			}
			ck.op(err == nil && resp.Advanced == lockWindow, "advance %d: %v", i, err)
			if err == nil {
				rec.advance(resp.Advanced, resp.Now, resp.StaticDeltaJ, resp.DynamicDeltaJ)
			}
		case opQuery:
			var st *cosim.Stats
			tr.call(root, "cosim.Client.Query", "cosim", func() { st, err = c.Query(sid) })
			ck.op(err == nil, "query %d: %v", i, err)
			if err == nil {
				rec.stats(st)
			}
		}
		if err != nil && s.op != opAdvance {
			return nil, err
		}
	}
	var st *cosim.Stats
	tr.call(root, "cosim.Client.CloseSession", "cosim", func() { st, err = c.CloseSession(sid) })
	tr.end(root)
	out.wall = time.Since(start)
	ck.op(err == nil, "close-session: %v", err)
	if err != nil {
		return nil, err
	}
	rec.stats(st)
	ck.op(st.PacketsInjected == j.packets && st.PacketsDelivered == st.PacketsInjected,
		"session delivered %d of %d packets (script injects %d)", st.PacketsDelivered, st.PacketsInjected, j.packets)
	out.digest = rec.d.sum()

	if tr != nil {
		m := out.layer
		m["traffic.generate_s"] = j.genTime.Seconds()
		m["traffic.entries"] = float64(j.entries)
		m["traffic.ns_per_entry"] = ratio(float64(j.genTime), float64(j.entries))
		m["cosim.bytes_per_op"] = float64(j.conn.read-read0+j.conn.written-written0) / j.requests()
		m["cosim.busy_replies"] = float64(busy)
		mem.put(m)
		out.spans = tr.spans
		j.lastRec = out.digest
		j.lastClient = layerSelf(tr.spans)["cosim"]
	}
	return out, nil
}

// layers replays the same script straight into a sim.Session — the
// calls the daemon makes per request — timing each session call, checks
// that every reply the replay derives equals the daemon's, and prices
// the daemon's per-request overhead as client time minus direct time.
func (j *lockJob) layers(m map[string]float64, ck *checker) error {
	tr := newTracer()
	root := tr.begin("session replay", "", -1)
	topo := topology.NewMesh(8, 8)
	var sess *sim.Session
	var err error
	tr.call(root, "sim.NewSession", "session", func() {
		sess, err = sim.NewSession(sim.Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}), Obs: obs.New()})
	})
	if err != nil {
		return err
	}
	calls := 1
	rec := replies{newDigest()}
	snapshot := func() cosim.Stats {
		calls++
		var st sim.SessionStats
		tr.call(root, "sim.Session.Snapshot", "session", func() { st = sess.Snapshot() })
		return wireStats(st)
	}
	snapshot() // the daemon publishes a snapshot when it opens a session
	var staticJ, dynamicJ float64
	for i := range j.script {
		s := &j.script[i]
		switch s.op {
		case opTransfer:
			entries := cosim.ExpandTransfer(s.src, s.dst, s.bytes, s.at)
			var est int64
			calls++
			tr.call(root, "sim.Session.EstimateLatency", "session", func() {
				est, err = sess.EstimateLatency(s.src, s.dst, entries[0].Kind)
			})
			for _, e := range entries {
				if err != nil {
					break
				}
				calls++
				tr.call(root, "sim.Session.Schedule", "session", func() { err = sess.Schedule(e.Time, e.Src, e.Dst, e.Kind) })
			}
			if err != nil {
				return fmt.Errorf("replay transfer %d: %w", i, err)
			}
			snapshot()
			rec.transfer(len(entries), est)
		case opAdvance:
			var n int64
			calls++
			tr.call(root, "sim.Session.Advance", "session", func() { n, err = sess.Advance(lockWindow) })
			if err != nil {
				return fmt.Errorf("replay advance %d: %w", i, err)
			}
			st := snapshot()
			rec.advance(n, st.Tick, st.StaticJ-staticJ, st.DynamicJ-dynamicJ)
			staticJ, dynamicJ = st.StaticJ, st.DynamicJ
		case opQuery:
			st := snapshot()
			rec.stats(&st)
		}
	}
	st := snapshot()
	calls++
	var res *sim.Result
	tr.call(root, "sim.Session.Close", "session", func() { res = sess.Close() })
	rec.stats(&st)
	tr.end(root)
	ck.op(rec.d.sum() == j.lastRec, "daemon replies differ from the direct sim.Session replay")

	var sc simCounts
	sc.add(res)
	sc.put(m, 0)
	self := layerSelf(tr.spans)
	m["session.advance_s"] = spanTotal(tr.spans, "sim.Session.Advance")
	m["session.schedule_s"] = spanTotal(tr.spans, "sim.Session.Schedule")
	m["session.estimate_s"] = spanTotal(tr.spans, "sim.Session.EstimateLatency")
	m["session.snapshot_s"] = spanTotal(tr.spans, "sim.Session.Snapshot")
	m["session.calls"] = float64(calls)
	m["cosim.overhead_us_per_op"] = (j.lastClient - self["session"]) * 1e6 / j.requests()
	return nil
}

// wireStats is the daemon's field-for-field mapping of a session
// snapshot onto the wire Stats.
func wireStats(st sim.SessionStats) cosim.Stats {
	return cosim.Stats{
		Tick: st.Tick, PacketsInjected: st.PacketsInjected, PacketsDelivered: st.PacketsDelivered,
		FlitsDelivered: st.FlitsDelivered, LatencySumTicks: st.LatencySumTicks, LatencyCount: st.LatencyCount,
		AvgLatencyTicks: st.AvgLatencyTicks, StaticJ: st.StaticJ, DynamicJ: st.DynamicJ,
		EpochDecisions: st.EpochDecisions, MeanAbsPredErr: st.MeanAbsPredErr,
		UnderPredDecisions: st.UnderPredDecisions, OverPredDecisions: st.OverPredDecisions,
		UnderPredStallTicks: st.UnderPredStallTicks, OverPredStaticWasteJ: st.OverPredStaticWasteJ,
		PredDriftEvents: st.PredDriftEvents,
	}
}
