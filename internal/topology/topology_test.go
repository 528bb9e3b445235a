package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshDimensions(t *testing.T) {
	m := NewMesh(8, 8)
	if m.NumRouters() != 64 || m.NumCores() != 64 {
		t.Fatalf("8x8 mesh: %d routers, %d cores; want 64/64", m.NumRouters(), m.NumCores())
	}
	if m.Concentration() != 1 {
		t.Errorf("mesh concentration = %d, want 1", m.Concentration())
	}
	if m.PortsPerRouter() != 5 {
		t.Errorf("mesh ports = %d, want 5", m.PortsPerRouter())
	}
	if m.Name() != "mesh8x8" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestCMeshDimensions(t *testing.T) {
	c := NewCMesh(4, 4)
	if c.NumRouters() != 16 || c.NumCores() != 64 {
		t.Fatalf("4x4 cmesh: %d routers, %d cores; want 16/64", c.NumRouters(), c.NumCores())
	}
	if c.Concentration() != 4 {
		t.Errorf("cmesh concentration = %d, want 4", c.Concentration())
	}
	if c.PortsPerRouter() != 8 {
		t.Errorf("cmesh ports = %d, want 8", c.PortsPerRouter())
	}
}

func TestTinyGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1x8 mesh did not panic")
		}
	}()
	NewMesh(1, 8)
}

func TestCoordRoundTrip(t *testing.T) {
	m := NewMesh(8, 8)
	for r := 0; r < m.NumRouters(); r++ {
		x, y := m.Coord(r)
		if got := m.RouterAt(x, y); got != r {
			t.Fatalf("RouterAt(Coord(%d)) = %d", r, got)
		}
	}
	if m.RouterAt(-1, 0) != -1 || m.RouterAt(8, 0) != -1 || m.RouterAt(0, 8) != -1 {
		t.Error("out-of-grid coordinates should map to -1")
	}
}

func TestCoreMapping(t *testing.T) {
	for _, topo := range []Topology{NewMesh(8, 8), NewCMesh(4, 4)} {
		for core := 0; core < topo.NumCores(); core++ {
			r := topo.RouterOf(core)
			lp := topo.LocalPort(core)
			if lp < 0 || lp >= topo.Concentration() {
				t.Fatalf("%s: core %d local port %d out of range", topo.Name(), core, lp)
			}
			if got := topo.CoreAt(r, lp); got != core {
				t.Fatalf("%s: CoreAt(RouterOf(%d), LocalPort) = %d", topo.Name(), core, got)
			}
		}
		if topo.CoreAt(0, topo.Concentration()) != -1 {
			t.Errorf("%s: CoreAt with cardinal port should be -1", topo.Name())
		}
		if topo.CoreAt(-1, 0) != -1 {
			t.Errorf("%s: CoreAt with bad router should be -1", topo.Name())
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	for _, topo := range []Topology{NewMesh(8, 8), NewCMesh(4, 4), NewMesh(3, 5)} {
		for r := 0; r < topo.NumRouters(); r++ {
			for p := topo.Concentration(); p < topo.PortsPerRouter(); p++ {
				n := topo.Neighbor(r, p)
				if n < 0 {
					continue
				}
				back := OppositePort(topo, p)
				if got := topo.Neighbor(n, back); got != r {
					t.Fatalf("%s: neighbor(%d,%s)=%d but neighbor(%d,%s)=%d",
						topo.Name(), r, PortName(topo, p), n, n, PortName(topo, back), got)
				}
			}
		}
	}
}

func TestNeighborLocalPortIsNone(t *testing.T) {
	m := NewMesh(8, 8)
	if m.Neighbor(0, 0) != -1 {
		t.Error("local port should have no neighbor")
	}
}

func TestEdgeRoutersHaveEdges(t *testing.T) {
	m := NewMesh(8, 8)
	// Corner (0,0) lacks north and west neighbors.
	r := m.RouterAt(0, 0)
	if m.Neighbor(r, PortNorth(m)) != -1 || m.Neighbor(r, PortWest(m)) != -1 {
		t.Error("corner router should lack N/W neighbors")
	}
	if m.Neighbor(r, PortEast(m)) == -1 || m.Neighbor(r, PortSouth(m)) == -1 {
		t.Error("corner router should have E/S neighbors")
	}
}

func TestOppositePortPanicsOnLocal(t *testing.T) {
	m := NewMesh(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("OppositePort(local) did not panic")
		}
	}()
	OppositePort(m, 0)
}

func TestPortNames(t *testing.T) {
	c := NewCMesh(4, 4)
	want := map[int]string{0: "L0", 3: "L3", 4: "N", 5: "E", 6: "S", 7: "W"}
	for p, name := range want {
		if got := PortName(c, p); got != name {
			t.Errorf("port %d = %q, want %q", p, got, name)
		}
	}
}

func TestIsLocalPort(t *testing.T) {
	c := NewCMesh(4, 4)
	for p := 0; p < 4; p++ {
		if !IsLocalPort(c, p) {
			t.Errorf("port %d should be local", p)
		}
	}
	for p := 4; p < 8; p++ {
		if IsLocalPort(c, p) {
			t.Errorf("port %d should be cardinal", p)
		}
	}
}

func TestNeighborGridProperty(t *testing.T) {
	m := NewMesh(8, 8)
	f := func(rRaw, pRaw uint8) bool {
		r := int(rRaw) % m.NumRouters()
		p := m.Concentration() + int(pRaw)%CardinalPorts
		n := m.Neighbor(r, p)
		if n < 0 {
			return true
		}
		x1, y1 := m.Coord(r)
		x2, y2 := m.Coord(n)
		dx, dy := x2-x1, y2-y1
		return abs(dx)+abs(dy) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// wrapped hides the concrete grid so NeighborTable takes its generic path.
type wrapped struct{ Topology }

// TestNeighborTable checks the tabulated neighbor relation against the
// grid coordinates for every router and port, both through Neighbor and
// through NeighborTable (the grid's own table and the generic
// tabulation), and that ports outside the router read as none.
func TestNeighborTable(t *testing.T) {
	for _, topo := range []Topology{NewMesh(5, 3), NewCMesh(4, 4)} {
		c, ports := topo.Concentration(), topo.PortsPerRouter()
		own, generic := NeighborTable(topo), NeighborTable(wrapped{topo})
		for r := 0; r < topo.NumRouters(); r++ {
			x, y := topo.Coord(r)
			for p := 0; p < ports; p++ {
				want := -1
				switch p - c {
				case North:
					want = topo.RouterAt(x, y-1)
				case East:
					want = topo.RouterAt(x+1, y)
				case South:
					want = topo.RouterAt(x, y+1)
				case West:
					want = topo.RouterAt(x-1, y)
				}
				i := r*ports + p
				if got := topo.Neighbor(r, p); got != want || own[i] != want || generic[i] != want {
					t.Errorf("%s router %d port %d: Neighbor %d, table %d, generic %d, want %d",
						topo.Name(), r, p, got, own[i], generic[i], want)
				}
			}
		}
		if topo.Neighbor(0, -1) != -1 || topo.Neighbor(0, ports) != -1 {
			t.Errorf("%s: a port outside the router has a neighbor", topo.Name())
		}
	}
}
