// Package topology models the mesh and concentrated-mesh (cmesh) networks
// the paper evaluates, and XY dimension-order routing (DOR) with look-ahead.
//
// Router port numbering: a router with concentration C has ports
// 0..C-1 (local/core ports) followed by North, East, South, West at
// C, C+1, C+2, C+3. The paper's mesh has C=1 (64 routers, 64 cores); the
// cmesh has C=4 (16 routers, 64 cores).
package topology

import "fmt"

// CardinalPorts is the number of inter-router ports (N, E, S, W).
const CardinalPorts = 4

// Topology describes a 2-D grid network with concentrated terminals.
type Topology interface {
	// Name identifies the topology ("mesh8x8", "cmesh4x4", ...).
	Name() string
	// Width and Height are the router-grid dimensions.
	Width() int
	Height() int
	// Concentration is the number of cores attached to each router.
	Concentration() int
	// NumRouters returns Width*Height.
	NumRouters() int
	// NumCores returns NumRouters*Concentration.
	NumCores() int
	// PortsPerRouter returns Concentration + 4.
	PortsPerRouter() int
	// RouterOf maps a core index to its router.
	RouterOf(core int) int
	// LocalPort maps a core index to its local port on RouterOf(core).
	LocalPort(core int) int
	// CoreAt maps (router, localPort) back to a core index, or -1.
	CoreAt(router, localPort int) int
	// Coord returns the (x, y) grid position of a router.
	Coord(router int) (x, y int)
	// RouterAt returns the router at grid position (x, y), or -1.
	RouterAt(x, y int) int
	// Neighbor returns the router reached over the given cardinal port,
	// or -1 at a mesh edge or for a local port.
	Neighbor(router, port int) int
}

// grid implements Topology for both mesh and cmesh.
type grid struct {
	name          string
	width, height int
	concentration int
	ports         int // concentration + CardinalPorts

	// nbr[r*ports+p] is the router reached over port p of router r, -1
	// for local and edge ports. Neighbor is on the per-flit paths of the
	// network and of routing's look-ahead, so it is tabulated once here.
	nbr []int
}

// NewMesh returns a width x height mesh with one core per router, the
// paper's primary 8x8 configuration being NewMesh(8, 8).
func NewMesh(width, height int) Topology {
	return newGrid(fmt.Sprintf("mesh%dx%d", width, height), width, height, 1)
}

// NewCMesh returns a width x height concentrated mesh with four cores per
// router, the paper's 4x4 cmesh (16 routers, 64 cores) being NewCMesh(4, 4).
func NewCMesh(width, height int) Topology {
	return newGrid(fmt.Sprintf("cmesh%dx%d", width, height), width, height, 4)
}

func newGrid(name string, width, height, concentration int) *grid {
	mustDims(width, height)
	g := &grid{name: name, width: width, height: height, concentration: concentration,
		ports: concentration + CardinalPorts}
	g.nbr = make([]int, g.NumRouters()*g.ports)
	for r := 0; r < g.NumRouters(); r++ {
		x, y := g.Coord(r)
		for p := 0; p < g.ports; p++ {
			n := -1
			switch p - concentration {
			case North:
				n = g.RouterAt(x, y-1)
			case East:
				n = g.RouterAt(x+1, y)
			case South:
				n = g.RouterAt(x, y+1)
			case West:
				n = g.RouterAt(x-1, y)
			}
			g.nbr[r*g.ports+p] = n
		}
	}
	return g
}

func mustDims(w, h int) {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: grid must be at least 2x2, got %dx%d", w, h))
	}
}

func (g *grid) Name() string        { return g.name }
func (g *grid) Width() int          { return g.width }
func (g *grid) Height() int         { return g.height }
func (g *grid) Concentration() int  { return g.concentration }
func (g *grid) NumRouters() int     { return g.width * g.height }
func (g *grid) NumCores() int       { return g.NumRouters() * g.concentration }
func (g *grid) PortsPerRouter() int { return g.ports }

func (g *grid) RouterOf(core int) int  { return core / g.concentration }
func (g *grid) LocalPort(core int) int { return core % g.concentration }

func (g *grid) CoreAt(router, localPort int) int {
	if localPort < 0 || localPort >= g.concentration || router < 0 || router >= g.NumRouters() {
		return -1
	}
	return router*g.concentration + localPort
}

func (g *grid) Coord(router int) (x, y int) { return router % g.width, router / g.width }

func (g *grid) RouterAt(x, y int) int {
	if x < 0 || x >= g.width || y < 0 || y >= g.height {
		return -1
	}
	return y*g.width + x
}

// Cardinal port offsets relative to Concentration.
const (
	North = 0
	East  = 1
	South = 2
	West  = 3
)

// PortNorth..PortWest return the absolute port index of a cardinal
// direction for topology t.
func PortNorth(t Topology) int { return t.Concentration() + North }
func PortEast(t Topology) int  { return t.Concentration() + East }
func PortSouth(t Topology) int { return t.Concentration() + South }
func PortWest(t Topology) int  { return t.Concentration() + West }

// IsLocalPort reports whether port p on topology t is a core port.
func IsLocalPort(t Topology, p int) bool { return p >= 0 && p < t.Concentration() }

// OppositePort returns the port on the neighboring router that a link out
// of port p arrives at (N<->S, E<->W). It panics for local ports.
func OppositePort(t Topology, p int) int {
	c := t.Concentration()
	switch p - c {
	case North:
		return c + South
	case South:
		return c + North
	case East:
		return c + West
	case West:
		return c + East
	}
	panic(fmt.Sprintf("topology: OppositePort of local port %d", p))
}

// PortName renders a port index for topology t ("L0", "N", "E", ...).
func PortName(t Topology, p int) string {
	c := t.Concentration()
	if p < c {
		return fmt.Sprintf("L%d", p)
	}
	switch p - c {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("P%d", p)
}

// NeighborTable returns t's neighbor relation as a flat table whose entry
// r*t.PortsPerRouter()+p is t.Neighbor(r, p), for callers that look
// neighbors up per flit. For the grids this package builds it is the
// table Neighbor itself reads, shared: callers must not modify it.
func NeighborTable(t Topology) []int {
	if g, ok := t.(*grid); ok {
		return g.nbr
	}
	ports := t.PortsPerRouter()
	nbr := make([]int, t.NumRouters()*ports)
	for i := range nbr {
		nbr[i] = t.Neighbor(i/ports, i%ports)
	}
	return nbr
}

func (g *grid) Neighbor(router, port int) int {
	if uint(port) >= uint(g.ports) || uint(router) >= uint(g.NumRouters()) {
		return -1
	}
	return g.nbr[router*g.ports+port]
}
