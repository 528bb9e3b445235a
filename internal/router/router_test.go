package router

import (
	"testing"

	"repro/internal/flit"
)

// fakeEnv is a controllable router.Env for single-router tests.
type fakeEnv struct {
	forwarded []*flit.Flit
	ejected   []*flit.Flit
	credits   [][2]int // (inPort, vc) of freed credits
	heads     []*flit.Flit
	tails     []*flit.Flit
	moved     int
	blocked   map[int]bool // outPort -> downstream refuses
}

func newFakeEnv() *fakeEnv { return &fakeEnv{blocked: map[int]bool{}} }

func (e *fakeEnv) ForwardFlit(r *Router, outPort, outVC int, f *flit.Flit) {
	e.forwarded = append(e.forwarded, f)
}
func (e *fakeEnv) EjectFlit(r *Router, localPort int, f *flit.Flit) {
	e.ejected = append(e.ejected, f)
}
func (e *fakeEnv) CreditFreed(r *Router, inPort, vc int) {
	e.credits = append(e.credits, [2]int{inPort, vc})
}
func (e *fakeEnv) CanForward(r *Router, outPort int) bool { return !e.blocked[outPort] }
func (e *fakeEnv) HeadAccepted(r *Router, f *flit.Flit)   { e.heads = append(e.heads, f) }
func (e *fakeEnv) TailForwarded(r *Router, outPort int, f *flit.Flit) {
	e.tails = append(e.tails, f)
}
func (e *fakeEnv) FlitMoved(r *Router, f *flit.Flit) { e.moved++ }

func testCfg() Config {
	return Config{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 4, Pipeline: 1}
}

func mkFlit(id uint64, kind flit.Kind, outPort int) []*flit.Flit {
	p := flit.New(id, 0, 1, kind, 0)
	fs := flit.Flits(p)
	for _, f := range fs {
		f.OutPort = outPort
		f.NextRouter = 9 // arbitrary non-local marker
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Ports: 5, LocalPorts: 0, VCs: 2, Depth: 4, Pipeline: 1},
		{Ports: 6, LocalPorts: 1, VCs: 2, Depth: 4, Pipeline: 1},
		{Ports: 5, LocalPorts: 1, VCs: 3, Depth: 4, Pipeline: 1},
		{Ports: 5, LocalPorts: 1, VCs: 0, Depth: 4, Pipeline: 1},
		{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 0, Pipeline: 1},
		{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 4, Pipeline: 0},
		{Ports: 5, LocalPorts: 1, VCs: 14, Depth: 4, Pipeline: 1}, // 70 requesters > 64
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestVCClassRange(t *testing.T) {
	c := testCfg()
	lo, hi := c.VCClassRange(flit.Request)
	if lo != 0 || hi != 1 {
		t.Errorf("request class = [%d,%d), want [0,1)", lo, hi)
	}
	lo, hi = c.VCClassRange(flit.Response)
	if lo != 1 || hi != 2 {
		t.Errorf("response class = [%d,%d), want [1,2)", lo, hi)
	}
}

func TestForwardSingleFlit(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	fs := mkFlit(1, flit.Request, 2) // out a cardinal port
	r.AcceptFlit(env, 1, 0, fs[0])
	if len(env.heads) != 1 {
		t.Fatal("HeadAccepted did not fire")
	}
	if r.BuffersEmpty() {
		t.Fatal("buffers should hold one flit")
	}
	r.Cycle(env)
	if len(env.forwarded) != 1 {
		t.Fatalf("forwarded %d flits, want 1", len(env.forwarded))
	}
	if len(env.tails) != 1 {
		t.Fatal("TailForwarded did not fire for a single-flit packet")
	}
	if len(env.credits) != 1 || env.credits[0] != [2]int{1, 0} {
		t.Fatalf("credits = %v", env.credits)
	}
	if !r.BuffersEmpty() {
		t.Fatal("buffers should be empty after forwarding")
	}
	if env.moved != 1 {
		t.Fatalf("FlitMoved fired %d times", env.moved)
	}
}

func TestEjectLocal(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	fs := mkFlit(1, flit.Request, 0) // out the local port
	fs[0].NextRouter = -1
	r.AcceptFlit(env, 2, 0, fs[0])
	r.Cycle(env)
	if len(env.ejected) != 1 {
		t.Fatalf("ejected %d, want 1", len(env.ejected))
	}
	if len(env.forwarded) != 0 {
		t.Fatal("nothing should be forwarded")
	}
	if r.FlitsEjected() != 1 || r.FlitsForwarded() != 0 {
		t.Error("movement counters wrong")
	}
}

func TestMultiFlitPacketStaysInOrder(t *testing.T) {
	cfg := testCfg()
	cfg.Depth = 8
	r := New(0, cfg)
	env := newFakeEnv()
	fs := mkFlit(1, flit.Response, 3)
	for _, f := range fs {
		r.AcceptFlit(env, 1, 1, f)
	}
	// One flit per cycle through one output port.
	for i := 0; i < 5; i++ {
		r.Cycle(env)
	}
	if len(env.forwarded) != 5 {
		t.Fatalf("forwarded %d flits, want 5", len(env.forwarded))
	}
	for i, f := range env.forwarded {
		if f.Seq != i {
			t.Fatalf("flit order broken: position %d has seq %d", i, f.Seq)
		}
	}
	if len(env.tails) != 1 {
		t.Fatal("exactly one tail must be reported")
	}
}

func TestCreditExhaustionBlocks(t *testing.T) {
	cfg := testCfg()
	r := New(0, cfg)
	env := newFakeEnv()
	// Two single-flit request packets from different input ports, same
	// output; the request class has one VC of depth 4 -> 4 credits.
	for i := 0; i < 6; i++ {
		fs := mkFlit(uint64(i), flit.Request, 2)
		r.AcceptFlit(env, 1, 0, fs[0])
		r.Cycle(env)
	}
	if len(env.forwarded) != 4 {
		t.Fatalf("forwarded %d flits with 4 credits, want 4", len(env.forwarded))
	}
	// Returning credits unblocks.
	r.Credit(2, 0)
	r.Credit(2, 0)
	r.Cycle(env)
	r.Cycle(env)
	if len(env.forwarded) != 6 {
		t.Fatalf("after credit return forwarded %d, want 6", len(env.forwarded))
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	r := New(0, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow did not panic")
		}
	}()
	r.Credit(2, 0) // already at full depth
}

func TestBufferOverflowPanics(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	for i := 0; i < 5; i++ {
		fs := mkFlit(uint64(i), flit.Request, 2)
		r.AcceptFlit(env, 1, 0, fs[0])
	}
}

func TestBlockedDownstreamHolds(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	env.blocked[2] = true
	fs := mkFlit(1, flit.Request, 2)
	r.AcceptFlit(env, 1, 0, fs[0])
	r.Cycle(env)
	if len(env.forwarded) != 0 {
		t.Fatal("flit crossed into a blocked downstream")
	}
	env.blocked[2] = false
	r.Cycle(env)
	if len(env.forwarded) != 1 {
		t.Fatal("flit did not move after unblocking")
	}
}

func TestOnePerOutputPerCycle(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	// Two packets at different input ports, both to output 2.
	a := mkFlit(1, flit.Request, 2)
	b := mkFlit(2, flit.Request, 2)
	r.AcceptFlit(env, 1, 0, a[0])
	r.AcceptFlit(env, 3, 0, b[0])
	r.Cycle(env)
	if len(env.forwarded) != 1 {
		t.Fatalf("one output port moved %d flits in one cycle", len(env.forwarded))
	}
	r.Cycle(env)
	if len(env.forwarded) != 2 {
		t.Fatal("second flit should move next cycle")
	}
}

func TestDistinctOutputsMoveInParallel(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	a := mkFlit(1, flit.Request, 2)
	b := mkFlit(2, flit.Request, 3)
	r.AcceptFlit(env, 1, 0, a[0])
	r.AcceptFlit(env, 3, 0, b[0])
	r.Cycle(env)
	if len(env.forwarded) != 2 {
		t.Fatalf("two distinct outputs moved %d flits, want 2", len(env.forwarded))
	}
}

func TestOnePerInputPortPerCycle(t *testing.T) {
	cfg := testCfg()
	cfg.Depth = 8
	r := New(0, cfg)
	env := newFakeEnv()
	// Two packets in the two VCs of one input port, to distinct outputs.
	a := mkFlit(1, flit.Request, 2)  // VC class 0
	b := mkFlit(2, flit.Response, 3) // VC class 1
	r.AcceptFlit(env, 1, 0, a[0])
	for _, f := range b {
		r.AcceptFlit(env, 1, 1, f)
	}
	r.Cycle(env)
	if len(env.forwarded) != 1 {
		t.Fatalf("one input port fed %d flits through the crossbar in one cycle", len(env.forwarded))
	}
}

func TestRoundRobinFairness(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	// Keep two input ports loaded toward one output; both must make
	// progress in alternation.
	push := func(id uint64, inPort int) {
		fs := mkFlit(id, flit.Request, 2)
		r.AcceptFlit(env, inPort, 0, fs[0])
	}
	push(1, 1)
	push(2, 3)
	push(3, 1)
	push(4, 3)
	var order []uint64
	for i := 0; i < 8 && len(env.forwarded) < 4; i++ {
		before := len(env.forwarded)
		r.Cycle(env)
		for _, f := range env.forwarded[before:] {
			order = append(order, f.Pkt.ID)
		}
		// Return credits immediately so arbitration, not credits, decides.
		for j := before; j < len(env.forwarded); j++ {
			r.Credit(2, 0)
		}
	}
	if len(order) != 4 {
		t.Fatalf("forwarded %d packets, want 4", len(order))
	}
	// Alternation: the two inputs interleave (1,2,3,4 order by ID pairs).
	if order[0] == order[1] || (order[0] == 1 && order[1] == 3) || (order[0] == 2 && order[1] == 4) {
		t.Fatalf("no round-robin alternation: %v", order)
	}
}

func TestPipelineDelaysFlits(t *testing.T) {
	cfg := testCfg()
	cfg.Pipeline = 3
	r := New(0, cfg)
	env := newFakeEnv()
	fs := mkFlit(1, flit.Request, 2)
	r.AcceptFlit(env, 1, 0, fs[0])
	// The flit needs Pipeline-1 = 2 more local cycles before traversal.
	r.Cycle(env)
	if len(env.forwarded) != 0 {
		t.Fatal("flit moved before clearing the pipeline")
	}
	r.Cycle(env)
	if len(env.forwarded) != 0 {
		t.Fatal("flit moved one cycle early")
	}
	r.Cycle(env)
	if len(env.forwarded) != 1 {
		t.Fatal("flit did not move after the pipeline delay")
	}
}

func TestOccupancy(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	occ, total := r.Occupancy()
	if occ != 0 || total != 5*2*4 {
		t.Fatalf("fresh occupancy = %d/%d", occ, total)
	}
	fs := mkFlit(1, flit.Response, 2)
	for _, f := range fs[:4] {
		r.AcceptFlit(env, 1, 1, f)
	}
	occ, _ = r.Occupancy()
	if occ != 4 {
		t.Fatalf("occupancy = %d, want 4", occ)
	}
}

func TestPendingToPortTracksPackets(t *testing.T) {
	cfg := testCfg()
	cfg.Depth = 8
	r := New(0, cfg)
	env := newFakeEnv()
	fs := mkFlit(1, flit.Response, 2)
	for _, f := range fs {
		r.AcceptFlit(env, 1, 1, f)
	}
	if r.PendingToPort(2) != 1 {
		t.Fatalf("pending = %d, want 1", r.PendingToPort(2))
	}
	for i := 0; i < 5; i++ {
		r.Cycle(env)
	}
	if r.PendingToPort(2) != 0 {
		t.Fatalf("pending after drain = %d", r.PendingToPort(2))
	}
}

func TestSnapshot(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	fs := mkFlit(1, flit.Request, 2)
	r.AcceptFlit(env, 1, 0, fs[0])
	s := r.Snapshot()
	if s.Occupied != 1 || s.PendingPerPort[2] != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestVCAllocationSeparatesClasses(t *testing.T) {
	cfg := testCfg()
	cfg.Depth = 8
	r := New(0, cfg)
	env := newFakeEnv()
	// A response packet must never claim the request VC downstream.
	fs := mkFlit(1, flit.Response, 2)
	for _, f := range fs {
		r.AcceptFlit(env, 1, 1, f)
	}
	for i := 0; i < 8; i++ {
		r.Cycle(env)
		for range env.forwarded {
		}
	}
	// All five flits fit in the class-1 downstream VC (depth 8); the
	// class-0 credit pool must be untouched, which we verify by filling
	// it afterwards without a panic from over-return.
	if len(env.forwarded) != 5 {
		t.Fatalf("forwarded %d, want 5", len(env.forwarded))
	}
	for i := 0; i < 5; i++ {
		r.Credit(2, 1) // class-1 credits were consumed, returns are legal
	}
	defer func() {
		if recover() == nil {
			t.Fatal("class-0 credit over-return did not panic, so the response must have consumed class-0 credits")
		}
	}()
	r.Credit(2, 0) // class-0 was never consumed: this overflows
}

func TestHasSpace(t *testing.T) {
	r := New(0, testCfg())
	env := newFakeEnv()
	if !r.HasSpace(0, 0) {
		t.Fatal("fresh buffer should have space")
	}
	for i := 0; i < 4; i++ {
		fs := mkFlit(uint64(i), flit.Request, 2)
		r.AcceptFlit(env, 0, 0, fs[0])
	}
	if r.HasSpace(0, 0) {
		t.Fatal("full VC should report no space")
	}
}
