// The staging lane. Every network-global mutation a router cycle can
// cause — a wire append, a delivery completion, an aggregate counter
// change — is staged into the lane during the tick's sweep and folded in
// by Commit, in the order the sweep produced it. Per-router state
// (buffers, credits, securing counts, the injection queues of attached
// cores) is mutated directly; the lane stages only fabric-wide state.
// Staging deliveries keeps the sink callback out of the sweep: closed-loop
// workloads observe them at Commit, once the whole tick has swept.
package network

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// delivery is a completed packet awaiting its sink callback (and pool
// recycling) at the next Commit; the sink observes deliveries in the
// ascending-router order the sweep fires them in.
type delivery struct {
	p    *flit.Packet
	core int
}

// lane is the network's staging area. It implements router.Env: router
// cycles run against it, and it forwards per-router effects directly
// and stages fabric-wide ones.
type lane struct {
	n *Network

	wire  []transit  // staged wire appends (merged FIFO at Commit)
	deliv []delivery // staged delivery callbacks

	// Aggregate counter deltas, folded into the Network at Commit.
	dFlitsInjected    int64
	dFlitsDelivered   int64
	dPacketsInjected  int64
	dPacketsDelivered int64
	dQueued           int

	// pool recycles the flits ejected by (and injected from) routers.
	pool flit.Pool
}

var _ router.Env = (*lane)(nil)

// secure takes one claim on a router and raises a wake request.
func (l *lane) secure(routerID int) {
	l.n.secured[routerID]++
	l.n.pv.WakeRequest(routerID)
}

func (l *lane) unsecure(routerID int) {
	l.n.secured[routerID]--
	if l.n.secured[routerID] < 0 {
		panic(fmt.Sprintf("network: securing underflow on router %d", routerID))
	}
}

// land places a flit into its destination router and, for tails, releases
// the securing claim on that router (the packet now fully resides there,
// so its buffers keep it awake).
func (l *lane) land(dst, inPort, vc int, f *flit.Flit) {
	out, nn, _ := topology.Lookahead(l.n.Topo, dst, f.Pkt.DstCore)
	f.OutPort, f.NextRouter = out, nn
	l.n.Routers[dst].AcceptFlit(l, inPort, vc, f)
	if f.Tail {
		l.unsecure(dst)
	}
}

// injectCore moves at most one flit from core's source queue into the
// router's input buffers at localPort.
func (l *lane) injectCore(r *router.Router, core, localPort int) {
	n := l.n
	st := &n.inj[core]
	if st.flits == nil {
		if st.qhead == len(st.queue) {
			return
		}
		p := st.queue[st.qhead]
		// Claim a VC in the packet's message class with room for the head.
		vc, ok := n.pickInjVC(r, localPort, p.Kind)
		if !ok {
			return
		}
		// Pop like the wire FIFO: zero the slot so the delivered (and
		// pool-recycled) packet is not pinned by the backing array, and
		// compact once the dead prefix reaches the live length.
		st.queue[st.qhead] = nil
		st.qhead++
		if st.qhead == len(st.queue) {
			st.queue = st.queue[:0]
			st.qhead = 0
		} else if st.qhead >= len(st.queue)-st.qhead {
			m := copy(st.queue, st.queue[st.qhead:])
			tail := st.queue[m:]
			for i := range tail {
				tail[i] = nil
			}
			st.queue = st.queue[:m]
			st.qhead = 0
		}
		st.flits = l.pool.GetFlits(p)
		st.nextSeq = 0
		st.vc = vc
		p.Injected = n.now
		l.dPacketsInjected++
		if p.Kind == flit.Request {
			n.coreSentReq[core]++
		}
	}
	if !r.HasSpace(localPort, st.vc) {
		return
	}
	f := st.flits[st.nextSeq]
	// Look-ahead route for this router.
	out, next, _ := topology.Lookahead(n.Topo, r.ID, f.Pkt.DstCore)
	f.OutPort, f.NextRouter = out, next
	r.AcceptFlit(l, localPort, st.vc, f)
	l.dFlitsInjected++
	st.nextSeq++
	if st.nextSeq == len(st.flits) {
		// Tail has entered the network: release the source router's
		// securing claim for this packet.
		l.pool.PutSlice(st.flits)
		st.flits = nil
		st.vc = -1
		l.dQueued--
		l.unsecure(r.ID)
	}
}

// --- router.Env implementation ---

// ForwardFlit wires output port outPort of r to the opposite input port of
// the neighbor, computing the look-ahead route for the next hop. With a
// nonzero link latency the flit is staged onto the wire and lands in a
// later tick's DeliverDue; with zero latency it lands inline.
func (l *lane) ForwardFlit(r *router.Router, outPort, outVC int, f *flit.Flit) {
	n := l.n
	next := n.neighbor(r.ID, outPort)
	if next < 0 {
		panic(fmt.Sprintf("network: router %d forwarded out of edge port %d", r.ID, outPort))
	}
	inPort := n.opp[outPort]
	if n.linkTicks == 0 {
		l.land(next, inPort, outVC, f)
		return
	}
	l.wire = append(l.wire, transit{deliverAt: n.now + n.linkTicks, dst: next, inPort: inPort, vc: outVC, f: f})
}

// EjectFlit consumes a flit at a local port; tails complete the packet.
// Ejection is the end of a flit's life, so pool-owned flits are recycled
// here; the packet's sink callback (and its own recycling) is staged for
// the next Commit.
func (l *lane) EjectFlit(r *router.Router, localPort int, f *flit.Flit) {
	l.dFlitsDelivered++
	if !f.Tail {
		l.pool.PutFlit(f)
		return
	}
	core := l.n.Topo.CoreAt(r.ID, localPort)
	p := f.Pkt
	l.pool.PutFlit(f)
	p.Ejected = l.n.now
	l.dPacketsDelivered++
	if p.Kind == flit.Request {
		l.n.coreRecvReq[core]++
	}
	l.deliv = append(l.deliv, delivery{p: p, core: core})
}

// CreditFreed returns a credit to the upstream router; injection ports
// need none (the source queue polls HasSpace).
func (l *lane) CreditFreed(r *router.Router, inPort, vc int) {
	if r.IsLocalPort(inPort) {
		return
	}
	up := l.n.neighbor(r.ID, inPort)
	if up < 0 {
		panic(fmt.Sprintf("network: credit from edge port %d of router %d", inPort, r.ID))
	}
	l.n.Routers[up].Credit(l.n.opp[inPort], vc)
}

// CanForward gates transmission on the downstream router being able to
// accept flits (active, not switching).
func (l *lane) CanForward(r *router.Router, outPort int) bool {
	next := l.n.neighbor(r.ID, outPort)
	if next < 0 {
		return false
	}
	return l.n.pv.CanAccept(next)
}

// HeadAccepted secures (and punch-wakes) the downstream router of a newly
// buffered packet.
func (l *lane) HeadAccepted(r *router.Router, f *flit.Flit) {
	if f.NextRouter >= 0 {
		l.secure(f.NextRouter)
	}
}

// TailForwarded is a router-side notification; the securing claim on the
// downstream router is released when the tail *lands* there (see land),
// so a router can never gate with a packet still on its incoming wire.
func (l *lane) TailForwarded(r *router.Router, outPort int, f *flit.Flit) {}

// FlitMoved bills a dynamic-energy hop at the moving router.
func (l *lane) FlitMoved(r *router.Router, f *flit.Flit) {
	if l.n.hop != nil {
		l.n.hop.FlitHopped(r.ID)
	}
}
