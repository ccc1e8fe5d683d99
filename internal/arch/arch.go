// Package arch models quantum hardware coupling architectures with the
// regular structure the paper exploits: an architecture is a coupling graph
// plus geometry metadata — a decomposition into "units" (rows/columns that
// behave like lines), a Hamiltonian snake where one exists, and, for IBM
// heavy-hex, the longest path and its off-path qubits (§5.1, Fig 16).
package arch

import (
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// Kind identifies the family of an architecture; the ATA pattern chosen by
// the compiler dispatches on it.
type Kind int

const (
	KindLine Kind = iota
	KindGrid
	KindSycamore
	KindHeavyHex
	KindHexagon
	KindLattice3D
	KindGeneric
)

func (k Kind) String() string {
	switch k {
	case KindLine:
		return "line"
	case KindGrid:
		return "grid"
	case KindSycamore:
		return "sycamore"
	case KindHeavyHex:
		return "heavy-hex"
	case KindHexagon:
		return "hexagon"
	case KindLattice3D:
		return "lattice3d"
	default:
		return "generic"
	}
}

// ByFamily returns the minimum near-square architecture of the named
// family that fits n qubits (§7.1): line, grid, sycamore, heavy-hex (alias
// heavyhex), hexagon, or the fixed 27-qubit mumbai (n ignored). Names come
// from user input, so an unknown family or n < 1 is an error, not a panic.
func ByFamily(family string, n int) (*Arch, error) {
	if family == "mumbai" {
		return Mumbai(), nil
	}
	if n < 1 {
		return nil, fmt.Errorf("architecture needs at least 1 qubit, got %d", n)
	}
	switch family {
	case "line":
		return Line(n), nil
	case "grid":
		return GridN(n), nil
	case "sycamore":
		return SycamoreN(n), nil
	case "heavy-hex", "heavyhex":
		return HeavyHexN(n), nil
	case "hexagon":
		return HexagonN(n), nil
	default:
		return nil, fmt.Errorf("unknown architecture family %q", family)
	}
}

// Coord locates a physical qubit in the architecture's geometry. For 2D
// families Z is 0. For heavy-hex, bridge (off-path) qubits have Bridge=true.
type Coord struct {
	Row, Col, Z int
	Bridge      bool
}

// Arch is a hardware coupling architecture.
type Arch struct {
	// Name is a human-readable identifier, e.g. "sycamore-8x8".
	Name string
	// Kind is the architecture family.
	Kind Kind
	// G is the coupling graph over physical qubits 0..N-1.
	G *graph.Graph
	// Coords gives the geometry of each physical qubit.
	Coords []Coord
	// Units is the row/column decomposition used by the structured ATA
	// solutions (§3): Units[u] lists the physical qubits of unit u in line
	// order. Nil for architectures compiled via a path (line, heavy-hex).
	Units [][]int
	// Snake is a Hamiltonian path over all qubits where one exists
	// (line, grid, sycamore, hexagon, 3D lattice); nil otherwise.
	Snake []int
	// Path is the heavy-hex longest path (§5.1); for other families it
	// equals Snake. Off-path qubits appear in OffPath.
	Path []int
	// OffPath lists heavy-hex qubits not on Path; each entry records the
	// qubit and its neighbouring positions on Path (indices into Path).
	OffPath []OffPathQubit

	distOnce sync.Once
	dist     [][]int

	fpOnce sync.Once
	fp     uint64

	unitOnce sync.Once
	unitOf   []int
	posOf    []int
}

// OffPathQubit is a heavy-hex bridge qubit hanging off the longest path.
type OffPathQubit struct {
	Qubit       int
	PathAnchors []int // indices into Arch.Path of its on-path neighbours
}

// N returns the number of physical qubits.
func (a *Arch) N() int { return a.G.N() }

// Dist returns the shortest-path distance between physical qubits p and q,
// computing and caching the all-pairs matrix on first use. The cache fill is
// synchronised, so an Arch may be shared by concurrent compilations.
func (a *Arch) Dist(p, q int) int {
	return a.Distances()[p][q]
}

// Distances returns the cached all-pairs distance matrix. The matrix is
// computed at most once and must be treated as read-only by callers.
func (a *Arch) Distances() [][]int {
	a.distOnce.Do(func() { a.dist = a.G.AllPairsDistances() })
	return a.dist
}

// Fingerprint returns a structural hash of the architecture: family, size,
// couplings, unit decomposition, snake, and path. Two independently
// constructed architectures with the same structure share a fingerprint, so
// caches keyed by it (internal/swapnet's pattern cache) survive across Arch
// instances. The constructors force it once at construction; the accessor is
// synchronised for any Arch assembled by hand.
func (a *Arch) Fingerprint() uint64 {
	a.fpOnce.Do(a.computeFingerprint)
	return a.fp
}

func (a *Arch) computeFingerprint() {
	h := fnv.New64a()
	buf := make([]byte, 0, 8)
	w := func(vs ...int) {
		for _, v := range vs {
			buf = buf[:0]
			u := uint64(v)
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(u>>(8*i)))
			}
			h.Write(buf)
		}
	}
	w(int(a.Kind), a.N())
	for _, e := range a.G.Edges() {
		w(e.U, e.V)
	}
	w(len(a.Units))
	for _, u := range a.Units {
		w(len(u))
		w(u...)
	}
	w(len(a.Snake))
	w(a.Snake...)
	w(len(a.Path))
	w(a.Path...)
	w(len(a.OffPath))
	for _, op := range a.OffPath {
		w(op.Qubit)
		w(op.PathAnchors...)
	}
	a.fp = h.Sum64()
}

// seal finalises a constructed architecture: it computes the structural
// fingerprint once, so sharing the Arch across goroutines never races on
// lazy initialisation. Every constructor returns through it.
func (a *Arch) seal() *Arch {
	a.Fingerprint()
	return a
}

// Diameter returns the graph diameter.
func (a *Arch) Diameter() int {
	d := a.Distances()
	max := 0
	for _, row := range d {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

func (a *Arch) String() string {
	return fmt.Sprintf("%s (%d qubits, %d couplings)", a.Name, a.N(), a.G.M())
}

// Line returns the 1xN line architecture.
func Line(n int) *Arch {
	g := graph.Path(n)
	coords := make([]Coord, n)
	snake := make([]int, n)
	unit := make([]int, n)
	for i := 0; i < n; i++ {
		coords[i] = Coord{Row: 0, Col: i}
		snake[i] = i
		unit[i] = i
	}
	a := &Arch{
		Name:   fmt.Sprintf("line-%d", n),
		Kind:   KindLine,
		G:      g,
		Coords: coords,
		Units:  [][]int{unit},
		Snake:  snake,
		Path:   snake,
	}
	return a.seal()
}

// Generic wraps an arbitrary coupling graph with no exploitable structure;
// only the greedy compiler applies to it.
func Generic(name string, g *graph.Graph) *Arch {
	coords := make([]Coord, g.N())
	for i := range coords {
		coords[i] = Coord{Row: 0, Col: i}
	}
	a := &Arch{Name: name, Kind: KindGeneric, G: g, Coords: coords}
	return a.seal()
}
