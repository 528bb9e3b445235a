// Struct-of-arrays slab for the hot per-router state. The simulation
// engine's per-tick sweep, its deferral predicate and each router cycle
// touch a handful of fields on every router they visit — the occupancy
// aggregate, the local cycle counter, the per-port pending counts and
// request masks, credits and downstream-VC claims. With each router a
// separate heap object those reads chase one pointer per router; a Slab
// packs each field into one contiguous array indexed by router ID, so a
// sweep over the routers walks flat memory. Routers built into a slab
// keep their full API — every accessor reads and writes through a view
// into the shared arrays — so nothing above the router layer changes
// semantics.
package router

import "repro/internal/flit"

// Slab is the shared backing store for the hot state of a set of
// same-configured routers, indexed by slot (the engine uses router ID as
// the slot). Cold state — VC rings, round-robin pointers, statistics —
// stays on the Router itself, where it is touched only when the router
// actually moves flits.
type Slab struct {
	cfg Config

	occupied   []int32 // occupied input-buffer slots per router
	localCycle []int64 // local cycle counter per router

	// Flat per-port and per-port-per-VC planes: router r's port p lives
	// at r*Ports+p, and its (p, v) entry at (r*Ports+p)*VCs+v.
	pendingToPort []int32
	requests      []uint64
	credits       []int32
	outVCBusy     []bool
}

// NewSlab allocates slab storage for n routers of one configuration. It
// panics on invalid configuration, like New.
func NewSlab(n int, cfg Config) *Slab {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Slab{
		cfg:           cfg,
		occupied:      make([]int32, n),
		localCycle:    make([]int64, n),
		pendingToPort: make([]int32, n*cfg.Ports),
		requests:      make([]uint64, n*cfg.Ports),
		credits:       make([]int32, n*cfg.Ports*cfg.VCs),
		outVCBusy:     make([]bool, n*cfg.Ports*cfg.VCs),
	}
	for i := range s.credits {
		s.credits[i] = int32(cfg.Depth)
	}
	return s
}

// Len returns the number of router slots.
func (s *Slab) Len() int { return len(s.occupied) }

// Config returns the router configuration the slab was sized for.
func (s *Slab) Config() Config { return s.cfg }

// OccupiedSlots exposes the occupancy plane: entry i is router slot i's
// occupied input-buffer slot count, maintained by AcceptFlit/popFront
// exactly like Router.Occupied. The engine reads it for contiguous
// sweeps (IBU accumulation, the deferral predicate); callers must treat
// it as read-only.
func (s *Slab) OccupiedSlots() []int32 { return s.occupied }

// NewInSlab builds a router whose hot state lives at slot of s. All
// routers sharing a slab use the slab's configuration. The router's VC
// rings are carved from one backing array of Ports*VCs*Depth slots.
func NewInSlab(id int, s *Slab, slot int) *Router {
	cfg := s.cfg
	r := &Router{ID: id, cfg: cfg}
	r.occ = &s.occupied[slot]
	r.lc = &s.localCycle[slot]
	r.pendingToPort = s.pendingToPort[slot*cfg.Ports : (slot+1)*cfg.Ports]
	r.req = s.requests[slot*cfg.Ports : (slot+1)*cfg.Ports]
	pv := cfg.Ports * cfg.VCs
	r.credits = s.credits[slot*pv : (slot+1)*pv]
	r.outVCBusy = s.outVCBusy[slot*pv : (slot+1)*pv]
	r.in = make([]vcState, pv)
	ring := make([]*flit.Flit, pv*cfg.Depth)
	for i := range r.in {
		r.in[i].buf = ring[i*cfg.Depth : (i+1)*cfg.Depth : (i+1)*cfg.Depth]
		r.in[i].outVC = -1
	}
	r.saLast = make([]int, cfg.Ports)
	r.vcaRR = make([]int, cfg.Ports)
	return r
}
