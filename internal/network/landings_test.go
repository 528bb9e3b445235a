// White-box tests for the head-indexed FIFO pops that keep recycled
// pool objects unreachable from the wire and injection-queue backing
// arrays (the PR's satellite bugfix: the old `q = q[1:]` pops left the
// vacated slots holding live *flit.Flit / *flit.Packet pointers).
package network

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/topology"
)

// sendOnWire injects a single-flit request from the core at router src
// toward the core at router dst and cycles src until its flit enters the
// wire, returning the tick of the send. The caller must have set a
// nonzero link latency.
func sendOnWire(t *testing.T, n *Network, topo topology.Topology, src, dst int, from int64) int64 {
	t.Helper()
	before := n.wireLen()
	n.SetTick(from)
	n.Inject(flit.New(uint64(from), topo.CoreAt(src, 0), topo.CoreAt(dst, 0), flit.Request, from))
	for tick := from; tick < from+20; tick++ {
		n.SetTick(tick)
		n.RouterCycle(src)
		if n.wireLen() > before {
			return tick
		}
	}
	t.Fatalf("flit from router %d never entered the wire", src)
	return -1
}

// TestWirePopReleasesPooledFlits is the pool-reuse accounting regression
// for the wire FIFO: popping a due transit must clear the backing-array
// slot, otherwise the (pool-recycled, soon reused) flit stays reachable
// from the dead prefix and the window slides instead of being reused.
// This test fails on the old `n.wire = n.wire[1:]` pop.
func TestWirePopReleasesPooledFlits(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n, _, _, _ := buildNet(t, topo)
	n.SetLinkTicks(2)
	sent := sendOnWire(t, n, topo, topo.RouterAt(0, 0), topo.RouterAt(3, 0), 0)
	// Capture the backing array while the transit is in flight.
	backing := n.wire[:len(n.wire)]
	if backing[0].f == nil {
		t.Fatal("in-flight transit lost its flit")
	}
	n.SetTick(sent + 2)
	n.DeliverDue()
	for i := range backing {
		if backing[i].f != nil {
			t.Fatalf("popped wire slot %d still pins flit %p", i, backing[i].f)
		}
	}
}

// TestInjectionQueuePopReleasesPackets is the same regression for the
// per-core source queues: claiming a packet for injection must clear its
// queue slot so the packet (pool-recycled after delivery) is not pinned
// by the queue's backing array. Fails on the old `queue = queue[1:]` pop.
func TestInjectionQueuePopReleasesPackets(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n, _, _, _ := buildNet(t, topo)
	src := topo.RouterAt(0, 0)
	core := topo.CoreAt(src, 0)
	dst := topo.CoreAt(topo.RouterAt(2, 0), 0)
	n.SetTick(0)
	n.Inject(flit.New(1, core, dst, flit.Request, 0))
	n.Inject(flit.New(2, core, dst, flit.Request, 0))
	backing := n.inj[core].queue[:2]
	for tick := int64(0); tick < 40; tick++ {
		n.SetTick(tick)
		n.RouterCycle(src)
		if n.QueuedPackets(core) == 0 {
			break
		}
	}
	if n.QueuedPackets(core) != 0 {
		t.Fatal("source queue never drained")
	}
	for i := range backing {
		if backing[i] != nil {
			t.Fatalf("popped queue slot %d still pins packet %p", i, backing[i])
		}
	}
}

// TestWireBackingBounded pins the amortized compaction: under sustained
// wire traffic (the FIFO never fully drains), the backing array must stay
// bounded by the peak in-flight population instead of sliding forward.
func TestWireBackingBounded(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n, _, _, _ := buildNet(t, topo)
	n.SetLinkTicks(4)
	src, dst := topo.RouterAt(0, 0), topo.RouterAt(3, 0)
	core := topo.CoreAt(src, 0)
	for tick := int64(0); tick < 2000; tick++ {
		n.SetTick(tick)
		if tick%2 == 0 {
			n.Inject(flit.New(uint64(tick), core, topo.CoreAt(dst, 0), flit.Request, tick))
		}
		n.DeliverDue()
		for r := 0; r < topo.NumRouters(); r++ {
			n.CycleRouter(r)
		}
		n.Commit()
	}
	// At most ~2 flits ride the 4-tick wire per 2-tick injection period
	// per hop; a generous bound still catches a sliding backing array,
	// which would grow toward the thousands of total sends.
	if cap(n.wire) > 64 {
		t.Fatalf("wire backing array grew to cap %d under sustained traffic", cap(n.wire))
	}
}
