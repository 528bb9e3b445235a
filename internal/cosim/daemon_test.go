package cosim

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// startConn wires a daemon to a fresh in-memory connection and returns
// a client speaking to it.
func startConn(t *testing.T, d *Daemon) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- d.ServeConn(sc, sc) }()
	t.Cleanup(func() {
		cc.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return NewClient(cc)
}

// scriptedTransfer is one step of the deterministic workload the
// equivalence and golden tests replay.
type scriptedTransfer struct {
	at       int64
	src, dst int
	bytes    int64
}

// transferScript builds a fixed mixed-size workload over cores cores:
// control messages and 1-10 line payloads, spread over [0, steps*50).
func transferScript(cores, steps int) []scriptedTransfer {
	var out []scriptedTransfer
	sizes := []int64{8, 64, 256, 640}
	for i := 0; len(out) < steps; i++ {
		src := (i * 7) % cores
		dst := (i*5 + 3) % cores
		if src == dst {
			continue
		}
		out = append(out, scriptedTransfer{
			at:    int64(len(out)) * 50,
			src:   src,
			dst:   dst,
			bytes: sizes[i%len(sizes)],
		})
	}
	return out
}

// TestDaemonSessionBitExact replays a scripted transfer sequence through
// the daemon protocol and directly onto a sim.Session built with the
// identical configuration, interleaving the same advance windows, and
// requires the daemon's wire stats, per-transfer latency estimates and
// per-advance energy deltas to DeepEqual the direct engine's — for all
// five paper models.
func TestDaemonSessionBitExact(t *testing.T) {
	const (
		width, height = 4, 4
		linkTicks     = 2
		drainWindow   = int64(200_000)
	)
	script := transferScript(width*height, 40)
	// Split the script at the first transfer scheduled at or after the
	// advance boundary: the second wave arrives after time has moved.
	const boundary = int64(1000)
	split := 0
	for split < len(script) && script[split].at < boundary {
		split++
	}
	for _, model := range []string{"baseline", "pg", "lead", "dozznoc", "ml-turbo"} {
		name := model

		d := NewDaemon(Options{})
		cl := startConn(t, d)
		sid, cores, err := cl.OpenSession(width, height, model, linkTicks)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if cores != width*height {
			t.Fatalf("%s: %d cores, want %d", name, cores, width*height)
		}

		topo := topology.NewMesh(width, height)
		spec, ok := specFor(model, topo.NumRouters())
		if !ok {
			t.Fatalf("%s: no spec", name)
		}
		// The daemon attaches a per-session observer (prediction-quality
		// stats in query replies); the direct session must match for the
		// wire stats to DeepEqual.
		direct, err := sim.NewSession(sim.Config{
			Topo: topo, Spec: spec, LinkTicks: linkTicks,
			Obs: obs.New(),
		})
		if err != nil {
			t.Fatalf("%s: direct session: %v", name, err)
		}

		run := func(ts []scriptedTransfer) {
			for _, tr := range ts {
				_, est, err := cl.Transfer(sid, tr.src, tr.dst, tr.bytes, tr.at)
				if err != nil {
					t.Fatalf("%s: transfer %+v: %v", name, tr, err)
				}
				entries := ExpandTransfer(tr.src, tr.dst, tr.bytes, tr.at)
				want, err := direct.EstimateLatency(tr.src, tr.dst, entries[0].Kind)
				if err != nil {
					t.Fatalf("%s: direct estimate: %v", name, err)
				}
				if est != want {
					t.Fatalf("%s: transfer %+v: daemon estimate %d, direct %d", name, tr, est, want)
				}
				for _, en := range entries {
					if err := direct.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
						t.Fatalf("%s: direct schedule: %v", name, err)
					}
				}
			}
		}
		advance := func(ticks int64) {
			before := direct.Snapshot()
			resp, err := cl.Advance(sid, ticks)
			if err != nil || !resp.OK {
				t.Fatalf("%s: advance(%d): %v %+v", name, ticks, err, resp)
			}
			if _, err := direct.Advance(ticks); err != nil {
				t.Fatalf("%s: direct advance: %v", name, err)
			}
			after := direct.Snapshot()
			if resp.Now != after.Tick || resp.Advanced != after.Tick-before.Tick {
				t.Fatalf("%s: advance clock (%d,%d) vs direct (%d,%d)",
					name, resp.Now, resp.Advanced, after.Tick, after.Tick-before.Tick)
			}
			if resp.StaticDeltaJ != after.StaticJ-before.StaticJ ||
				resp.DynamicDeltaJ != after.DynamicJ-before.DynamicJ {
				t.Fatalf("%s: advance energy deltas (%g,%g) vs direct (%g,%g)", name,
					resp.StaticDeltaJ, resp.DynamicDeltaJ,
					after.StaticJ-before.StaticJ, after.DynamicJ-before.DynamicJ)
			}
		}

		run(script[:split])
		advance(boundary)
		run(script[split:])
		advance(drainWindow)

		got, err := cl.Query(sid)
		if err != nil {
			t.Fatalf("%s: query: %v", name, err)
		}
		want := wireStats(direct.Snapshot())
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s: daemon stats diverge from direct engine:\ndaemon: %+v\ndirect: %+v", name, *got, want)
		}
		if got.PacketsDelivered != got.PacketsInjected || got.PacketsInjected == 0 {
			t.Fatalf("%s: workload not fully delivered: %+v", name, got)
		}

		final, err := cl.CloseSession(sid)
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if !reflect.DeepEqual(*final, want) {
			t.Fatalf("%s: close stats diverge: %+v vs %+v", name, *final, want)
		}
		direct.Close()
		d.Close()
	}
}

// TestDaemonConcurrentClients drives N clients × M sessions each through
// interleaved opens, transfers, advances and queries. Run under -race
// (make race-engine) it is the daemon's data-race gate; the assertions
// only sanity-check per-session isolation.
func TestDaemonConcurrentClients(t *testing.T) {
	const (
		clients  = 4
		sessions = 3
		rounds   = 5
	)
	d := NewDaemon(Options{Workers: 2})
	defer d.Close()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		cc, sc := net.Pipe()
		go d.ServeConn(sc, sc) //nolint:errcheck — pipe closes on client exit
		wg.Add(1)
		go func(ci int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			cl := NewClient(conn)
			ids := make([]string, sessions)
			for si := range ids {
				sid, _, err := cl.OpenSession(2, 2, "dozznoc", 1)
				if err != nil {
					errc <- fmt.Errorf("client %d open %d: %w", ci, si, err)
					return
				}
				ids[si] = sid
			}
			var now int64
			for r := 0; r < rounds; r++ {
				for si, sid := range ids {
					if _, _, err := cl.Transfer(sid, si%4, (si+1)%4, 64, now); err != nil {
						errc <- fmt.Errorf("client %d transfer: %w", ci, err)
						return
					}
					for {
						resp, err := cl.Advance(sid, 500)
						if err != nil {
							errc <- fmt.Errorf("client %d advance: %w", ci, err)
							return
						}
						if resp.OK {
							break
						}
						if resp.Code != CodeBusy || resp.RetryAfterMS <= 0 {
							errc <- fmt.Errorf("client %d: non-busy failure %+v", ci, resp)
							return
						}
					}
					st, err := cl.Query(sid)
					if err != nil {
						errc <- fmt.Errorf("client %d query: %w", ci, err)
						return
					}
					if st.Tick != now+500 {
						errc <- fmt.Errorf("client %d session %s at tick %d, want %d", ci, sid, st.Tick, now+500)
						return
					}
				}
				now += 500
				// Exercise the expvar branch concurrently with live traffic.
				_ = cosimExpvar()
			}
			for _, sid := range ids {
				if _, err := cl.CloseSession(sid); err != nil {
					errc <- fmt.Errorf("client %d close: %w", ci, err)
					return
				}
			}
		}(ci, cc)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDaemonBackpressureBusy saturates a one-worker pool with a gated
// advance and requires the next advance to get an explicit CodeBusy
// reply with a retry hint — never to queue or block — and to succeed on
// retry once the pool frees up.
func TestDaemonBackpressureBusy(t *testing.T) {
	d := NewDaemon(Options{Workers: 1, RetryAfterMS: 7})
	defer d.Close()
	entered := make(chan string, 1)
	release := make(chan struct{})
	d.advanceGate = func(id string) {
		entered <- id
		<-release
	}

	holder := startConn(t, d)
	waiter := startConn(t, d)
	hs, _, err := holder.OpenSession(2, 2, "baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := waiter.OpenSession(2, 2, "baseline", 0)
	if err != nil {
		t.Fatal(err)
	}

	heldDone := make(chan *Response, 1)
	go func() {
		resp, err := holder.Advance(hs, 1000)
		if err != nil {
			t.Errorf("held advance: %v", err)
		}
		heldDone <- resp
	}()
	if got := <-entered; got != hs {
		t.Fatalf("gate saw session %s, want %s", got, hs)
	}

	resp, err := waiter.Advance(ws, 1000)
	if err != nil {
		t.Fatalf("busy-path advance: %v", err)
	}
	if resp.OK || resp.Code != CodeBusy || resp.RetryAfterMS != 7 {
		t.Fatalf("expected busy with retry hint, got %+v", resp)
	}

	d.advanceGate = nil
	close(release)
	if resp := <-heldDone; resp == nil || !resp.OK || resp.Advanced != 1000 {
		t.Fatalf("held advance failed: %+v", resp)
	}
	resp, err = waiter.Advance(ws, 1000)
	if err != nil || !resp.OK {
		t.Fatalf("retry after busy failed: %v %+v", err, resp)
	}
}

// TestDaemonSessionLimitAndErrors covers the daemon-level failure
// replies: per-connection session caps, unknown sessions, unknown
// models, and undecodable frames answered (not dropped) with their id
// echoed when it survived.
func TestDaemonSessionLimitAndErrors(t *testing.T) {
	d := NewDaemon(Options{MaxSessionsPerConn: 2})
	defer d.Close()
	cl := startConn(t, d)
	for i := 0; i < 2; i++ {
		if _, _, err := cl.OpenSession(2, 2, "baseline", 0); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cl.Do(&Request{Op: OpOpenSession, Width: 2, Height: 2, Model: "baseline"})
	if err != nil || resp.OK || resp.Code != CodeSessionLimit {
		t.Fatalf("expected session-limit, got %+v (%v)", resp, err)
	}
	resp, err = cl.Do(&Request{Op: OpOpenSession, Width: 2, Height: 2, Model: "booksim"})
	if err != nil || resp.OK || resp.Code != CodeBadModel {
		t.Fatalf("expected bad-model, got %+v (%v)", resp, err)
	}
	resp, err = cl.Do(&Request{Op: OpQuery, Session: "s999"})
	if err != nil || resp.OK || resp.Code != CodeNoSession {
		t.Fatalf("expected no-session, got %+v (%v)", resp, err)
	}
	ticks := int64(-5)
	resp, err = cl.Do(&Request{Op: OpAdvance, Session: "s1", Ticks: &ticks})
	if err != nil || resp.OK || resp.Code != CodeBadField {
		t.Fatalf("expected bad-field, got %+v (%v)", resp, err)
	}
}

// TestDaemonServeTCP exercises the real listener path end to end.
func TestDaemonServeTCP(t *testing.T) {
	d := NewDaemon(Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	sid, _, err := cl.OpenSession(2, 2, "pg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Transfer(sid, 0, 3, 128, -1); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Advance(sid, 2000); err != nil || !resp.OK {
		t.Fatalf("advance: %v %+v", err, resp)
	}
	st, err := cl.Query(sid)
	if err != nil || st.PacketsDelivered != 2 {
		t.Fatalf("query: %v %+v", err, st)
	}
	conn.Close()
	d.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestDaemonExpvarBranch: live sessions appear under the dozznoc.cosim
// branch with their model and last snapshot, and disappear on close.
func TestDaemonExpvarBranch(t *testing.T) {
	d := NewDaemon(Options{})
	defer d.Close()
	cl := startConn(t, d)
	sid, _, err := cl.OpenSession(3, 3, "lead", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Advance(sid, 1500); err != nil || !resp.OK {
		t.Fatalf("advance: %v %+v", err, resp)
	}
	var snap struct {
		Daemons  int `json:"daemons"`
		Sessions map[string]struct {
			Model string `json:"model"`
			Mesh  string `json:"mesh"`
			Stats
		} `json:"sessions"`
	}
	roundTrip := func() {
		t.Helper()
		b, err := json.Marshal(cosimExpvar())
		if err != nil {
			t.Fatal(err)
		}
		snap = struct {
			Daemons  int `json:"daemons"`
			Sessions map[string]struct {
				Model string `json:"model"`
				Mesh  string `json:"mesh"`
				Stats
			} `json:"sessions"`
		}{}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	sv, ok := snap.Sessions[sid]
	if !ok {
		t.Fatalf("session %s missing from expvar branch: %+v", sid, snap)
	}
	if sv.Model != "lead" || sv.Mesh != "3x3" || sv.Tick != 1500 {
		t.Fatalf("expvar session vars wrong: %+v", sv)
	}
	if snap.Daemons < 1 {
		t.Fatalf("daemon missing from registry: %+v", snap)
	}
	if _, err := cl.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	roundTrip()
	if _, ok := snap.Sessions[sid]; ok {
		t.Fatalf("closed session still published: %+v", snap)
	}
}
