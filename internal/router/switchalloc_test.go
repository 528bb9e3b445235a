package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flit"
)

// refRouter is a reference copy of the probing switch allocator the
// request masks replaced: a work-conserving round-robin Grant that calls
// a closure for every input VC in turn, latching a head's route when a
// probe first finds it at the front of its VC. It keeps its own plain
// slices (no slab, no rings) and reports to the same Env, passing a nil
// router. The differential test below drives it in lockstep with Router.
type refRouter struct {
	cfg Config
	in  [][]refVC
	lc  int64

	credits       []int32
	outVCBusy     []bool
	pendingToPort []int32
	arbLast       []int
	vcaRR         []int
	inPortUsed    []bool
}

type refVC struct {
	q       []*flit.Flit
	routed  bool
	outPort int
	outVC   int
}

func newRefRouter(cfg Config) *refRouter {
	r := &refRouter{
		cfg:           cfg,
		in:            make([][]refVC, cfg.Ports),
		credits:       make([]int32, cfg.Ports*cfg.VCs),
		outVCBusy:     make([]bool, cfg.Ports*cfg.VCs),
		pendingToPort: make([]int32, cfg.Ports),
		arbLast:       make([]int, cfg.Ports),
		vcaRR:         make([]int, cfg.Ports),
		inPortUsed:    make([]bool, cfg.Ports),
	}
	for p := range r.in {
		r.in[p] = make([]refVC, cfg.VCs)
		for v := range r.in[p] {
			r.in[p][v].outVC = -1
		}
	}
	for i := range r.credits {
		r.credits[i] = int32(cfg.Depth)
	}
	return r
}

func (r *refRouter) hasSpace(inPort, vc int) bool { return len(r.in[inPort][vc].q) < r.cfg.Depth }

func (r *refRouter) accept(env Env, inPort, vc int, f *flit.Flit) {
	s := &r.in[inPort][vc]
	s.q = append(s.q, f)
	f.ReadyCycle = r.lc + int64(r.cfg.Pipeline)
	if f.Head {
		r.pendingToPort[f.OutPort]++
		env.HeadAccepted(nil, f)
	}
}

func (r *refRouter) credit(outPort, vc int) { r.credits[outPort*r.cfg.VCs+vc]++ }

func (r *refRouter) occupied() int {
	n := 0
	for p := range r.in {
		for v := range r.in[p] {
			n += len(r.in[p][v].q)
		}
	}
	return n
}

// grant is the deleted RoundRobin.Grant over Ports*VCs requesters.
func (r *refRouter) grant(outPort int, req func(i int) bool) {
	n := r.cfg.Ports * r.cfg.VCs
	for i := 1; i <= n; i++ {
		idx := (r.arbLast[outPort] + i) % n
		if req(idx) {
			r.arbLast[outPort] = idx
			return
		}
	}
}

func (r *refRouter) cycle(env Env) {
	r.lc++
	if r.occupied() == 0 {
		return
	}
	for i := range r.inPortUsed {
		r.inPortUsed[i] = false
	}
	for p := 0; p < r.cfg.Ports; p++ {
		r.serveOutput(env, p)
	}
}

func (r *refRouter) serveOutput(env Env, outPort int) {
	if r.pendingToPort[outPort] == 0 {
		return
	}
	local := outPort < r.cfg.LocalPorts
	if !local && !env.CanForward(nil, outPort) {
		return
	}
	r.grant(outPort, func(idx int) bool {
		inPort, vc := idx/r.cfg.VCs, idx%r.cfg.VCs
		if r.inPortUsed[inPort] {
			return false
		}
		s := &r.in[inPort][vc]
		if len(s.q) == 0 || s.q[0].ReadyCycle > r.lc {
			return false
		}
		f := s.q[0]
		if f.Head && !s.routed {
			s.routed = true
			s.outPort = f.OutPort
			s.outVC = -1
		}
		if !s.routed || s.outPort != outPort {
			return false
		}
		if local {
			localPort := s.outPort
			r.popFront(env, inPort, vc, s, f)
			env.FlitMoved(nil, f)
			env.EjectFlit(nil, localPort, f)
		} else if !r.forward(env, inPort, vc, outPort, s, f) {
			return false
		}
		r.inPortUsed[inPort] = true
		return true
	})
}

func (r *refRouter) forward(env Env, inPort, vc, outPort int, s *refVC, f *flit.Flit) bool {
	if s.outVC < 0 && !r.allocVC(outPort, s, f) {
		return false
	}
	if r.credits[outPort*r.cfg.VCs+s.outVC] == 0 {
		return false
	}
	r.credits[outPort*r.cfg.VCs+s.outVC]--
	outVC := s.outVC
	r.popFront(env, inPort, vc, s, f)
	if f.Tail {
		r.outVCBusy[outPort*r.cfg.VCs+outVC] = false
		env.TailForwarded(nil, outPort, f)
	}
	env.FlitMoved(nil, f)
	env.ForwardFlit(nil, outPort, outVC, f)
	return true
}

func (r *refRouter) popFront(env Env, inPort, vc int, s *refVC, f *flit.Flit) {
	s.q[0] = nil
	s.q = s.q[1:]
	if f.Tail {
		r.pendingToPort[s.outPort]--
		s.routed = false
		s.outVC = -1
	}
	env.CreditFreed(nil, inPort, vc)
}

func (r *refRouter) allocVC(outPort int, s *refVC, f *flit.Flit) bool {
	lo, hi := r.cfg.VCClassRange(f.Pkt.Kind)
	span := hi - lo
	start := r.vcaRR[outPort]
	for i := 0; i < span; i++ {
		v := lo + (start+i)%span
		if !r.outVCBusy[outPort*r.cfg.VCs+v] {
			r.outVCBusy[outPort*r.cfg.VCs+v] = true
			s.outVC = v
			r.vcaRR[outPort] = (start + i + 1) % span
			return true
		}
	}
	return false
}

// logEnv records every state-changing Env call as a line of text; the
// router argument is ignored so the reference can pass nil. CanForward
// is a pure query of the blocked set and is not logged: the request-mask
// allocator skips it for outputs nobody requests.
type logEnv struct {
	log     []string
	blocked map[int]bool
	owed    [][2]int // (outPort, outVC) credits consumed by forwards
}

func flitTag(f *flit.Flit) string { return fmt.Sprintf("p%d.%d", f.Pkt.ID, f.Seq) }

func (e *logEnv) ForwardFlit(_ *Router, outPort, outVC int, f *flit.Flit) {
	e.log = append(e.log, fmt.Sprintf("fwd %s out=%d vc=%d", flitTag(f), outPort, outVC))
	e.owed = append(e.owed, [2]int{outPort, outVC})
}
func (e *logEnv) EjectFlit(_ *Router, localPort int, f *flit.Flit) {
	e.log = append(e.log, fmt.Sprintf("eject %s port=%d", flitTag(f), localPort))
}
func (e *logEnv) CreditFreed(_ *Router, inPort, vc int) {
	e.log = append(e.log, fmt.Sprintf("credit in=%d vc=%d", inPort, vc))
}
func (e *logEnv) CanForward(_ *Router, outPort int) bool { return !e.blocked[outPort] }
func (e *logEnv) HeadAccepted(_ *Router, f *flit.Flit) {
	e.log = append(e.log, "head "+flitTag(f))
}
func (e *logEnv) TailForwarded(_ *Router, outPort int, f *flit.Flit) {
	e.log = append(e.log, fmt.Sprintf("tail %s out=%d", flitTag(f), outPort))
}
func (e *logEnv) FlitMoved(_ *Router, f *flit.Flit) {
	e.log = append(e.log, "moved "+flitTag(f))
}

// TestSwitchAllocationMatchesReference drives the request-mask router
// and the reference probing allocator with identical random sequences
// of flit arrivals (packets interleaved across VCs, so body flits also
// land in drained VCs), credit returns and downstream backpressure
// toggles, and requires identical Env call logs after every step: same
// grants, same VC allocations, same credits, in the same order. The
// arms cover mesh (5-port) and cmesh (8-port) routers, single- and
// three-cycle pipelines, both message classes, a 64-requester router
// (where the round-robin pointer reaches bit 63), and credit starvation.
func TestSwitchAllocationMatchesReference(t *testing.T) {
	arms := []struct {
		name        string
		cfg         Config
		creditEvery int // a credit step returns a credit with probability 1/creditEvery
	}{
		{"mesh/pipe1", Config{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 4, Pipeline: 1}, 2},
		{"mesh/pipe3", Config{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 4, Pipeline: 3}, 2},
		{"mesh/pipe1/starved", Config{Ports: 5, LocalPorts: 1, VCs: 2, Depth: 2, Pipeline: 1}, 12},
		{"cmesh/pipe1", Config{Ports: 8, LocalPorts: 4, VCs: 2, Depth: 4, Pipeline: 1}, 2},
		{"cmesh/pipe3/starved", Config{Ports: 8, LocalPorts: 4, VCs: 2, Depth: 3, Pipeline: 3}, 12},
		{"cmesh/vcs8/pipe3", Config{Ports: 8, LocalPorts: 4, VCs: 8, Depth: 3, Pipeline: 3}, 3},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := arm.cfg
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(7000 + 31*trial)))
				r := New(0, cfg)
				ref := newRefRouter(cfg)
				env := &logEnv{blocked: map[int]bool{}}
				refEnv := &logEnv{blocked: env.blocked}
				// Per input VC, the flits of the packet being delivered
				// into it: one copy for each router, since AcceptFlit
				// stamps ReadyCycle on the flit.
				type stream struct{ mine, theirs []*flit.Flit }
				streams := make([]stream, cfg.Ports*cfg.VCs)
				var id uint64

				check := func(step int, op string) {
					t.Helper()
					if !reflect.DeepEqual(env.log, refEnv.log) {
						i := 0
						for i < len(env.log) && i < len(refEnv.log) && env.log[i] == refEnv.log[i] {
							i++
						}
						t.Fatalf("trial %d step %d (%s): Env logs diverge at call %d:\n masks: %v\n ref:   %v",
							trial, step, op, i, env.log[i:], refEnv.log[i:])
					}
					if got, want := r.Occupied(), ref.occupied(); got != want {
						t.Fatalf("trial %d step %d (%s): occupied %d, reference %d", trial, step, op, got, want)
					}
					for p := 0; p < cfg.Ports; p++ {
						if got, want := r.PendingToPort(p), int(ref.pendingToPort[p]); got != want {
							t.Fatalf("trial %d step %d (%s): pending[%d] %d, reference %d", trial, step, op, p, got, want)
						}
					}
				}

				for step := 0; step < 3000; step++ {
					op := "cycle"
					switch k := rng.Intn(8); {
					case k < 4: // one flit arrives at a random input VC
						op = "accept"
						inPort, vc := rng.Intn(cfg.Ports), rng.Intn(cfg.VCs)
						st := &streams[inPort*cfg.VCs+vc]
						if len(st.mine) == 0 {
							kind := flit.Request
							if lo, _ := cfg.VCClassRange(flit.Response); vc >= lo {
								kind = flit.Response
							}
							out := rng.Intn(cfg.Ports)
							for _, fs := range []*[]*flit.Flit{&st.mine, &st.theirs} {
								*fs = flit.Flits(flit.New(id, 0, 1, kind, 0))
								for _, f := range *fs {
									f.OutPort = out
									f.NextRouter = 9
								}
							}
							id++
						}
						if r.HasSpace(inPort, vc) != ref.hasSpace(inPort, vc) {
							t.Fatalf("trial %d step %d: HasSpace(%d,%d) disagrees", trial, step, inPort, vc)
						}
						if !r.HasSpace(inPort, vc) {
							continue
						}
						r.AcceptFlit(env, inPort, vc, st.mine[0])
						ref.accept(refEnv, inPort, vc, st.theirs[0])
						st.mine, st.theirs = st.mine[1:], st.theirs[1:]
					case k == 4: // toggle backpressure on one output
						op = "block"
						p := rng.Intn(cfg.Ports)
						env.blocked[p] = !env.blocked[p]
					case k == 5: // maybe return one consumed credit
						op = "credit"
						if n := len(env.owed); n > 0 && rng.Intn(arm.creditEvery) == 0 {
							i := rng.Intn(n)
							c := env.owed[i]
							env.owed[i] = env.owed[n-1]
							env.owed = env.owed[:n-1]
							r.Credit(c[0], c[1])
							ref.credit(c[0], c[1])
						}
					default:
						r.Cycle(env)
						ref.cycle(refEnv)
					}
					check(step, op)
					checkRequestMasks(t, r)
				}
			}
		})
	}
}

// checkRequestMasks recounts every output port's request mask from the
// VC rings — bit inPort*VCs+vc belongs in req[p] iff that VC is non-empty
// and its front flit is routed out of p — and fails on any difference.
// It relies on every flit of a packet carrying the packet's OutPort, as
// look-ahead routing guarantees.
func checkRequestMasks(t *testing.T, r *Router) {
	t.Helper()
	want := make([]uint64, r.cfg.Ports)
	for idx := range r.in {
		if s := &r.in[idx]; s.n > 0 {
			want[s.front().OutPort] |= 1 << idx
		}
	}
	for p := range want {
		if r.req[p] != want[p] {
			t.Fatalf("request mask of port %d = %#x, recount from the queues %#x", p, r.req[p], want[p])
		}
	}
}
