package arch

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func validateSnake(t *testing.T, a *Arch) {
	t.Helper()
	if a.Snake == nil {
		t.Fatalf("%s: nil snake", a.Name)
	}
	if len(a.Snake) != a.N() {
		t.Fatalf("%s: snake covers %d of %d qubits", a.Name, len(a.Snake), a.N())
	}
	seen := make(map[int]bool)
	for i, q := range a.Snake {
		if seen[q] {
			t.Fatalf("%s: snake revisits qubit %d", a.Name, q)
		}
		seen[q] = true
		if i > 0 && !a.G.HasEdge(a.Snake[i-1], q) {
			t.Fatalf("%s: snake step %d->%d not a coupling", a.Name, a.Snake[i-1], q)
		}
	}
}

func validatePath(t *testing.T, a *Arch) {
	t.Helper()
	seen := make(map[int]bool)
	for i, q := range a.Path {
		if seen[q] {
			t.Fatalf("%s: path revisits qubit %d", a.Name, q)
		}
		seen[q] = true
		if i > 0 && !a.G.HasEdge(a.Path[i-1], q) {
			t.Fatalf("%s: path step %d->%d not a coupling", a.Name, a.Path[i-1], q)
		}
	}
	// Every off-path qubit must have at least one on-path anchor and must
	// not itself be on the path.
	for _, op := range a.OffPath {
		if seen[op.Qubit] {
			t.Fatalf("%s: off-path qubit %d is on the path", a.Name, op.Qubit)
		}
		if len(op.PathAnchors) == 0 {
			t.Fatalf("%s: off-path qubit %d has no anchors", a.Name, op.Qubit)
		}
		for _, i := range op.PathAnchors {
			if !a.G.HasEdge(op.Qubit, a.Path[i]) {
				t.Fatalf("%s: anchor %d of off-path %d not coupled", a.Name, i, op.Qubit)
			}
		}
	}
	// Path + off-path must cover all qubits.
	covered := len(a.Path) + len(a.OffPath)
	if covered != a.N() {
		t.Fatalf("%s: path(%d)+offpath(%d) != N(%d)", a.Name, len(a.Path), len(a.OffPath), a.N())
	}
}

func TestLine(t *testing.T) {
	a := Line(6)
	if a.N() != 6 || a.G.M() != 5 {
		t.Fatalf("line-6: n=%d m=%d", a.N(), a.G.M())
	}
	validateSnake(t, a)
	validatePath(t, a)
	if a.Dist(0, 5) != 5 {
		t.Fatalf("line dist(0,5) = %d", a.Dist(0, 5))
	}
}

func TestGrid(t *testing.T) {
	a := Grid(4, 5)
	if a.N() != 20 {
		t.Fatalf("n = %d", a.N())
	}
	if a.G.M() != 4*4+3*5 {
		t.Fatalf("m = %d, want %d", a.G.M(), 4*4+3*5)
	}
	validateSnake(t, a)
	if len(a.Units) != 4 || len(a.Units[0]) != 5 {
		t.Fatalf("units shape %dx%d", len(a.Units), len(a.Units[0]))
	}
	if a.Dist(0, 19) != 3+4 {
		t.Fatalf("grid dist corner-corner = %d", a.Dist(0, 19))
	}
	if a.Diameter() != 7 {
		t.Fatalf("grid diameter = %d", a.Diameter())
	}
}

func TestGridNNearSquare(t *testing.T) {
	for _, n := range []int{1, 4, 10, 64, 100, 1000, 1024} {
		a := GridN(n)
		if a.N() < n {
			t.Fatalf("GridN(%d) has %d qubits", n, a.N())
		}
		if a.N() > n+64 && n > 16 {
			t.Errorf("GridN(%d) oversized: %d", n, a.N())
		}
	}
}

func TestSycamoreStructure(t *testing.T) {
	a := Sycamore(4, 4)
	if a.N() != 16 {
		t.Fatalf("n = %d", a.N())
	}
	id := func(r, c int) int { return r*4 + c }
	// Vertical couplings always exist.
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if !a.G.HasEdge(id(r, c), id(r+1, c)) {
				t.Fatalf("missing vertical (%d,%d)", r, c)
			}
		}
	}
	// No intra-row couplings.
	for r := 0; r < 4; r++ {
		for c := 0; c+1 < 4; c++ {
			if a.G.HasEdge(id(r, c), id(r, c+1)) {
				t.Fatalf("unexpected intra-row coupling (%d,%d)", r, c)
			}
		}
	}
	// Diagonals by parity.
	if !a.G.HasEdge(id(0, 0), id(1, 1)) {
		t.Fatal("missing even-row diagonal")
	}
	if !a.G.HasEdge(id(1, 1), id(2, 0)) {
		t.Fatal("missing odd-row diagonal")
	}
	if a.G.HasEdge(id(1, 0), id(2, 1)) {
		t.Fatal("unexpected odd-row right diagonal")
	}
}

func TestSycamoreZigZagPath(t *testing.T) {
	a := Sycamore(5, 4)
	for r := 0; r+1 < 5; r++ {
		p := a.ZigZagPath(r)
		if len(p) != 8 {
			t.Fatalf("zigzag(%d) covers %d qubits", r, len(p))
		}
		seen := map[int]bool{}
		for i, q := range p {
			if seen[q] {
				t.Fatalf("zigzag(%d) revisits %d", r, q)
			}
			seen[q] = true
			if i > 0 && !a.G.HasEdge(p[i-1], q) {
				t.Fatalf("zigzag(%d) step %d->%d not coupled", r, p[i-1], q)
			}
			row := a.Coords[q].Row
			if row != r && row != r+1 {
				t.Fatalf("zigzag(%d) contains qubit of row %d", r, row)
			}
		}
	}
}

func TestSycamoreZigZagAlternatesRows(t *testing.T) {
	a := Sycamore(4, 5)
	for r := 0; r+1 < 4; r++ {
		p := a.ZigZagPath(r)
		for i, q := range p {
			row := a.Coords[q].Row
			wantTop := (i%2 == 1) == (r%2 == 0) // even r: odd positions are top row
			if r%2 == 1 {
				wantTop = i%2 == 0
			}
			isTop := row == r
			if isTop != wantTop {
				t.Fatalf("zigzag(%d)[%d] row %d, want top=%v", r, i, row, wantTop)
			}
		}
	}
}

func TestHexagonStructure(t *testing.T) {
	a := Hexagon(4, 4)
	if a.N() != 16 {
		t.Fatalf("n = %d", a.N())
	}
	id := func(r, c int) int { return r*4 + c }
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if a.G.Degree(id(r, c)) > 3 {
				t.Fatalf("hexagon degree(%d,%d) = %d > 3", r, c, a.G.Degree(id(r, c)))
			}
		}
	}
	if !a.G.HasEdge(id(0, 0), id(0, 1)) {
		t.Fatal("missing horizontal at (0,0)")
	}
	if a.G.HasEdge(id(0, 1), id(0, 2)) {
		t.Fatal("unexpected horizontal at (0,1)")
	}
	if !a.G.HasEdge(id(1, 1), id(1, 2)) {
		t.Fatal("missing horizontal at (1,1)")
	}
	// Units are columns.
	if len(a.Units) != 4 || len(a.Units[0]) != 4 {
		t.Fatalf("units shape %dx%d", len(a.Units), len(a.Units[0]))
	}
	if a.Units[2][3] != id(3, 2) {
		t.Fatalf("unit indexing wrong: %d", a.Units[2][3])
	}
}

func TestHexagonOddColsRoundedUp(t *testing.T) {
	a := Hexagon(4, 5)
	if len(a.Units) != 6 {
		t.Fatalf("cols = %d, want rounded to 6", len(a.Units))
	}
}

func TestHeavyHex(t *testing.T) {
	a := HeavyHex(3, 8)
	validatePath(t, a)
	if !a.G.IsConnected() {
		t.Fatal("heavy-hex not connected")
	}
	// All row qubits are on the path.
	if len(a.Path) != 3*8+2 { // rows + one end bridge per gap
		t.Fatalf("path length %d, want %d", len(a.Path), 3*8+2)
	}
	// width ≡ 1 (mod 4) is widened to keep degree <= 3.
	if w := HeavyHex(3, 9); w.N() != HeavyHex(3, 10).N() {
		t.Fatalf("width-9 not rounded: %d vs %d", w.N(), HeavyHex(3, 10).N())
	}
	// Degree bound: row qubits <= 3 (line + bridge), bridges = 2.
	for q := 0; q < a.N(); q++ {
		d := a.G.Degree(q)
		if a.Coords[q].Bridge && d != 2 {
			t.Fatalf("bridge %d degree %d", q, d)
		}
		if d > 3 {
			t.Fatalf("qubit %d degree %d > 3", q, d)
		}
	}
}

func TestHeavyHexNSizes(t *testing.T) {
	for _, n := range []int{27, 64, 128, 256, 1024} {
		a := HeavyHexN(n)
		if a.N() < n {
			t.Fatalf("HeavyHexN(%d) = %d qubits", n, a.N())
		}
		validatePath(t, a)
	}
}

// heavyHexNOracle is HeavyHexN as it was when it built a device for every
// improvement of the aspect gap.
func heavyHexNOracle(n int) *Arch {
	var best *Arch
	bestGap := 1 << 30
	for rows := 1; rows <= n; rows++ {
		lo, hi := 2, 2*n
		for lo < hi {
			mid := (lo + hi) / 2
			if heavyHexCount(rows, mid) >= n {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if heavyHexCount(rows, lo) < n {
			continue
		}
		if gap := aspectGap(rows, lo); best == nil || gap < bestGap {
			best, bestGap = HeavyHex(rows, lo), gap
		}
		if 2*rows > lo {
			break
		}
	}
	if best == nil {
		best = HeavyHex(1, max(2, n))
	}
	return best
}

// TestHeavyHexNMatchesOracle: building only the chosen shape gives the
// device the build-every-improvement loop gave.
func TestHeavyHexNMatchesOracle(t *testing.T) {
	sizes := []int{0, 512, 1024}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		got, want := HeavyHexN(n), heavyHexNOracle(n)
		if got.Name != want.Name || got.N() != want.N() ||
			!reflect.DeepEqual(got.G.Edges(), want.G.Edges()) || !reflect.DeepEqual(got.Path, want.Path) {
			t.Fatalf("HeavyHexN(%d) = %s (%d qubits), oracle %s (%d qubits), or their edges or paths differ",
				n, got.Name, got.N(), want.Name, want.N())
		}
	}
}

func TestMumbai(t *testing.T) {
	a := Mumbai()
	if a.N() != 27 {
		t.Fatalf("n = %d", a.N())
	}
	if a.G.M() != 28 {
		t.Fatalf("m = %d, want 28", a.G.M())
	}
	if !a.G.IsConnected() {
		t.Fatal("mumbai not connected")
	}
	validatePath(t, a)
	if len(a.Path) < 20 {
		t.Fatalf("longest path only %d qubits", len(a.Path))
	}
}

func TestLattice3D(t *testing.T) {
	a := Lattice3D(3, 3, 3)
	if a.N() != 27 {
		t.Fatalf("n = %d", a.N())
	}
	if a.G.M() != 3*(2*3*3) {
		t.Fatalf("m = %d, want %d", a.G.M(), 54)
	}
	validateSnake(t, a)
	if a.Diameter() != 6 {
		t.Fatalf("diameter = %d", a.Diameter())
	}
}

func TestEnclosingRegionGrid(t *testing.T) {
	a := Grid(6, 6)
	// Qubits (1,2), (3,4) -> rectangle units 1..3, positions 2..4.
	r := EnclosingRegion(a, []int{1*6 + 2, 3*6 + 4})
	if r.UsesPath {
		t.Fatal("grid region uses path")
	}
	if r.U0 != 1 || r.U1 != 3 || r.P0 != 2 || r.P1 != 4 {
		t.Fatalf("region %+v", r)
	}
	if r.Size() != 9 {
		t.Fatalf("size %d", r.Size())
	}
}

func TestEnclosingRegionHeavyHexPath(t *testing.T) {
	a := HeavyHex(3, 9)
	r := EnclosingRegion(a, []int{a.Path[2], a.Path[7]})
	if !r.UsesPath {
		t.Fatal("heavy-hex region must use path")
	}
	if r.I0 != 2 || r.I1 != 7 {
		t.Fatalf("interval [%d,%d]", r.I0, r.I1)
	}
	// An off-path qubit extends the interval to cover its anchors.
	if len(a.OffPath) == 0 {
		t.Skip("no off-path bridges at this size")
	}
	op := a.OffPath[0]
	r2 := EnclosingRegion(a, []int{op.Qubit})
	if r2.I1 < r2.I0 {
		t.Fatalf("empty interval for off-path qubit: %+v", r2)
	}
}

// enclosingRegionOracle is EnclosingRegion as it was before the per-Arch
// path-span index: the path branch builds a map of path indices and a map
// of off-path anchors on every call.
func enclosingRegionOracle(a *Arch, phys []int) Region {
	if len(phys) == 0 {
		return Region{}
	}
	if len(a.Units) > 0 {
		unitOf, posOf := a.unitIndex()
		r := Region{U0: 1 << 30, P0: 1 << 30, U1: -1, P1: -1}
		for _, q := range phys {
			u, p := unitOf[q], posOf[q]
			if u < r.U0 {
				r.U0 = u
			}
			if u > r.U1 {
				r.U1 = u
			}
			if p < r.P0 {
				r.P0 = p
			}
			if p > r.P1 {
				r.P1 = p
			}
		}
		return r
	}
	idx := make(map[int]int, len(a.Path))
	for i, q := range a.Path {
		idx[q] = i
	}
	anchors := make(map[int][]int, len(a.OffPath))
	for _, op := range a.OffPath {
		anchors[op.Qubit] = op.PathAnchors
	}
	r := Region{UsesPath: true, I0: 1 << 30, I1: -1}
	grow := func(i int) {
		if i < r.I0 {
			r.I0 = i
		}
		if i > r.I1 {
			r.I1 = i
		}
	}
	for _, q := range phys {
		if i, ok := idx[q]; ok {
			grow(i)
			continue
		}
		for _, i := range anchors[q] {
			grow(i)
		}
	}
	return r
}

// TestEnclosingRegionMatchesMapOracle checks EnclosingRegion against the
// map-based oracle for random qubit subsets on the path-encoded devices
// (heavy-hex, Mumbai, and a line's path with its unit encoding dropped)
// and on unit-encoded ones.
func TestEnclosingRegionMatchesMapOracle(t *testing.T) {
	line := Line(12)
	archs := []*Arch{
		HeavyHex(2, 8), HeavyHex(3, 9), HeavyHexN(64), Mumbai(),
		{Name: "line-12-path", Kind: KindLine, G: line.G, Snake: line.Snake, Path: line.Path},
		line, Grid(5, 4), Sycamore(4, 4),
	}
	rng := rand.New(rand.NewSource(5))
	for _, a := range archs {
		for trial := 0; trial < 200; trial++ {
			phys := rng.Perm(a.N())[:1+rng.Intn(a.N())]
			if got, want := EnclosingRegion(a, phys), enclosingRegionOracle(a, phys); got != want {
				t.Fatalf("%s %v: EnclosingRegion %+v, oracle %+v", a.Name, phys, got, want)
			}
		}
	}
}

func TestRegionOverlapUnion(t *testing.T) {
	r1 := Region{U0: 0, U1: 2, P0: 0, P1: 2}
	r2 := Region{U0: 2, U1: 4, P0: 1, P1: 5}
	r3 := Region{U0: 3, U1: 4, P0: 3, P1: 5}
	if !r1.Overlaps(r2) {
		t.Fatal("r1/r2 should overlap")
	}
	if r1.Overlaps(r3) {
		t.Fatal("r1/r3 should not overlap")
	}
	u := r1.Union(r2)
	if u.U0 != 0 || u.U1 != 4 || u.P0 != 0 || u.P1 != 5 {
		t.Fatalf("union %+v", u)
	}
}

func TestFullRegion(t *testing.T) {
	a := Grid(3, 4)
	r := FullRegion(a)
	if r.U0 != 0 || r.U1 != 2 || r.P0 != 0 || r.P1 != 3 {
		t.Fatalf("full region %+v", r)
	}
	hh := HeavyHex(2, 5)
	rp := FullRegion(hh)
	if !rp.UsesPath || rp.I0 != 0 || rp.I1 != len(hh.Path)-1 {
		t.Fatalf("full path region %+v", rp)
	}
}

func TestUnitIndex(t *testing.T) {
	a := Grid(3, 4)
	unitOf, posOf := a.UnitIndex()
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			q := r*4 + c
			if unitOf[q] != r || posOf[q] != c {
				t.Fatalf("unitIndex(%d) = (%d,%d)", q, unitOf[q], posOf[q])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindLine, KindGrid, KindSycamore, KindHeavyHex, KindHexagon, KindLattice3D, KindGeneric}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind string %q duplicated or empty", s)
		}
		seen[s] = true
	}
}

func TestByFamily(t *testing.T) {
	for _, tc := range []struct {
		family string
		kind   Kind
	}{
		{"line", KindLine},
		{"grid", KindGrid},
		{"sycamore", KindSycamore},
		{"heavy-hex", KindHeavyHex},
		{"heavyhex", KindHeavyHex},
		{"hexagon", KindHexagon},
	} {
		a, err := ByFamily(tc.family, 30)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if a.Kind != tc.kind || a.N() < 30 {
			t.Fatalf("%s: got %s with %d qubits, want %s with >= 30", tc.family, a.Kind, a.N(), tc.kind)
		}
	}
	if a, err := ByFamily("mumbai", 5); err != nil || a.N() != 27 {
		t.Fatalf("mumbai: %v, %v", a, err)
	}
	if _, err := ByFamily("torus", 30); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("unknown family: err = %v, want one naming torus", err)
	}
	for _, n := range []int{0, -3} {
		if _, err := ByFamily("grid", n); err == nil {
			t.Fatalf("%d-qubit architecture accepted", n)
		}
	}
}

func TestRenderAllFamilies(t *testing.T) {
	for _, a := range []*Arch{
		Line(5), Grid(3, 4), Sycamore(3, 3), HeavyHex(2, 8), Hexagon(4, 4),
		Lattice3D(2, 2, 2), Mumbai(),
	} {
		out := a.Render()
		if out == "" {
			t.Fatalf("%s: empty render", a.Name)
		}
	}
	// Spot-check grid content: qubit 0 coupled right and down.
	out := Grid(2, 2).Render()
	if !strings.Contains(out, "0  --1") && !strings.Contains(out, "0  --") {
		t.Fatalf("grid render missing coupling marks:\n%s", out)
	}
}
