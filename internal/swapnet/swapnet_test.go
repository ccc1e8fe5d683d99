package swapnet

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// runChecked executes the ATA pattern on (a, problem) with an identity
// mapping and validates every emitted step: compute pairs and swaps lie on
// couplings, tags match the current occupants, no physical qubit is used
// twice within a layer, and the want set is fully drained. It returns the
// total cycle depth and program-gate count.
func runChecked(t *testing.T, a *arch.Arch, problem *graph.Graph) (cycles, gates int) {
	t.Helper()
	st := NewState(a, problem.N(), nil, problem)
	// Shadow mapping replayed independently of State to cross-check.
	p2l := make([]int, a.N())
	for i := range p2l {
		p2l[i] = -1
	}
	for l := 0; l < problem.N(); l++ {
		p2l[l] = l
	}
	want := NewEdgeSet(problem)
	emit := func(s Step) {
		cycles += s.Depth()
		used := map[int]bool{}
		for _, g := range s.Compute {
			if !a.G.HasEdge(g.P, g.Q) {
				t.Fatalf("compute on uncoupled pair (%d,%d)", g.P, g.Q)
			}
			if used[g.P] || used[g.Q] {
				t.Fatalf("qubit reused within compute layer (%d,%d)", g.P, g.Q)
			}
			used[g.P], used[g.Q] = true, true
			lp, lq := p2l[g.P], p2l[g.Q]
			if lp < 0 || lq < 0 {
				t.Fatalf("compute on empty slot (%d,%d)", g.P, g.Q)
			}
			e := graph.NewEdge(lp, lq)
			if e != g.Tag {
				t.Fatalf("tag %v but occupants %v", g.Tag, e)
			}
			if !want.Remove(e) {
				t.Fatalf("edge %v computed twice or never wanted", e)
			}
			gates++
			if g.Fused {
				p2l[g.P], p2l[g.Q] = p2l[g.Q], p2l[g.P]
			}
		}
		for _, layer := range s.Swaps {
			lu := map[int]bool{}
			for _, e := range layer {
				if !a.G.HasEdge(e.U, e.V) {
					t.Fatalf("swap on uncoupled pair %v", e)
				}
				if lu[e.U] || lu[e.V] {
					t.Fatalf("qubit reused within swap layer %v", e)
				}
				lu[e.U], lu[e.V] = true, true
				p2l[e.U], p2l[e.V] = p2l[e.V], p2l[e.U]
			}
		}
	}
	if err := ATA(st, arch.FullRegion(a), emit); err != nil {
		t.Fatalf("ATA: %v", err)
	}
	if !st.Want.Empty() {
		t.Fatalf("%s: %d wanted edges not scheduled (of %d)", a.Name, st.Want.Len(), problem.M())
	}
	if want.Len() != 0 {
		t.Fatalf("shadow want desync: %d left", want.Len())
	}
	// State's mapping must agree with the shadow replay.
	for p := 0; p < a.N(); p++ {
		if st.P2L[p] != p2l[p] {
			t.Fatalf("mapping desync at phys %d: %d vs %d", p, st.P2L[p], p2l[p])
		}
	}
	return cycles, gates
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(graph.Complete(4))
	if s.Len() != 6 || s.Empty() {
		t.Fatalf("len=%d", s.Len())
	}
	e := graph.NewEdge(1, 2)
	if !s.Has(e) || !s.Remove(e) || s.Remove(e) {
		t.Fatal("remove semantics wrong")
	}
	c := s.Clone()
	c.Remove(graph.NewEdge(0, 1))
	if s.Len() != 5 || c.Len() != 4 {
		t.Fatal("clone not independent")
	}
	if len(s.Edges()) != 5 {
		t.Fatal("Edges length wrong")
	}
}

func TestStateSwapAndWanted(t *testing.T) {
	a := arch.Line(4)
	st := NewState(a, 3, nil, graph.Complete(3))
	if _, ok := st.WantedPhys(0, 1); !ok {
		t.Fatal("adjacent wanted pair not found")
	}
	if _, ok := st.WantedPhys(2, 3); ok {
		t.Fatal("pair with empty slot reported wanted")
	}
	st.ApplySwap(2, 3)
	if st.P2L[3] != 2 || st.L2P[2] != 3 {
		t.Fatal("swap with empty slot broken")
	}
}

func TestLinearCliqueCoverage(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 9, 16} {
		a := arch.Line(n)
		cycles, gates := runChecked(t, a, graph.Complete(n))
		if gates != n*(n-1)/2 {
			t.Fatalf("line-%d: %d gates", n, gates)
		}
		// One cycle per round, n rounds.
		if cycles > n+1 {
			t.Fatalf("line-%d: %d cycles, want <= %d", n, cycles, n+1)
		}
	}
}

func TestLinearReversal(t *testing.T) {
	n := 8
	a := arch.Line(n)
	st := NewState(a, n, nil, graph.Complete(n))
	linear(st, [][]int{a.Path}, linearOpts{preserveDynamics: true}, func(Step) {})
	for p := 0; p < n; p++ {
		if st.P2L[p] != n-1-p {
			t.Fatalf("no reversal: phys %d holds %d", p, st.P2L[p])
		}
	}
}

func TestLinearSparseSkipsEarly(t *testing.T) {
	n := 16
	a := arch.Line(n)
	p := graph.New(n)
	p.AddEdge(0, 1)
	p.AddEdge(2, 3)
	st := NewState(a, n, nil, p)
	cycles := 0
	linear(st, [][]int{a.Path}, linearOpts{}, func(s Step) { cycles += s.Depth() })
	if !st.Want.Empty() {
		t.Fatal("sparse want not drained")
	}
	if cycles > 2 {
		t.Fatalf("adjacent-only want took %d cycles", cycles)
	}
}

func TestGridCliqueCoverage(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {4, 4}, {4, 5}, {6, 6}} {
		a := arch.Grid(sz[0], sz[1])
		n := a.N()
		cycles, gates := runChecked(t, a, graph.Complete(n))
		if gates != n*(n-1)/2 {
			t.Fatalf("grid %v: %d gates, want %d", sz, gates, n*(n-1)/2)
		}
		// Linear-depth bound: intra phase ~C cycles + R rounds x (C + 1).
		bound := 3*n + 4*sz[1] + 8
		if cycles > bound {
			t.Fatalf("grid %v: %d cycles exceeds linear bound %d", sz, cycles, bound)
		}
	}
}

func TestBipartitePatternMeetsAllCrossPairs(t *testing.T) {
	// Directly exercise Fig 9 on two rows of a 2xC grid: the want set holds
	// only cross edges; C cycles must drain it.
	for _, C := range []int{2, 3, 4, 5, 8} {
		a := arch.Grid(2, C)
		p := graph.New(2 * C)
		for i := 0; i < C; i++ {
			for j := 0; j < C; j++ {
				p.AddEdge(i, C+j) // logical i in row 0, C+j in row 1
			}
		}
		st := NewState(a, 2*C, nil, p)
		sc := newScope(st, append(append([]int{}, a.Units[0]...), a.Units[1]...))
		cycles := 0
		bipartiteGrid(st, a.Units, [][2]int{{0, 1}}, sc, func(s Step) { cycles += s.Depth() })
		if !st.Want.Empty() {
			t.Fatalf("C=%d: %d cross pairs missed", C, st.Want.Len())
		}
		if cycles > 2*C {
			t.Fatalf("C=%d: %d cycles", C, cycles)
		}
	}
}

func TestSycamoreCliqueCoverage(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {4, 4}, {5, 4}, {6, 6}} {
		a := arch.Sycamore(sz[0], sz[1])
		n := a.N()
		cycles, gates := runChecked(t, a, graph.Complete(n))
		if gates != n*(n-1)/2 {
			t.Fatalf("sycamore %v: %d gates, want %d", sz, gates, n*(n-1)/2)
		}
		if bound := 3*n + 8; cycles > bound {
			t.Fatalf("sycamore %v: %d cycles exceeds %d", sz, cycles, bound)
		}
	}
}

func TestSycamorePairingExchangesRows(t *testing.T) {
	a := arch.Sycamore(2, 4)
	n := 8
	st := NewState(a, n, nil, graph.Complete(n))
	sc := newScope(st, []int{0, 1, 2, 3, 4, 5, 6, 7})
	linear(st, [][]int{zigZagSegment(nil, a, 0, 0, 3)}, linearOpts{sc: sc, preserveDynamics: true}, func(Step) {})
	// Logical qubits 0..3 started in row 0 (phys 0..3); after the pairing
	// they must all reside in row 1 (phys 4..7), and vice versa.
	for l := 0; l < 4; l++ {
		if st.L2P[l] < 4 {
			t.Fatalf("logical %d still in row 0 (phys %d)", l, st.L2P[l])
		}
	}
	for l := 4; l < 8; l++ {
		if st.L2P[l] >= 4 {
			t.Fatalf("logical %d still in row 1 (phys %d)", l, st.L2P[l])
		}
	}
}

func TestHexagonCliqueCoverage(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {4, 4}, {4, 6}, {6, 4}} {
		a := arch.Hexagon(sz[0], sz[1])
		n := a.N()
		cycles, gates := runChecked(t, a, graph.Complete(n))
		if gates != n*(n-1)/2 {
			t.Fatalf("hexagon %v: %d gates, want %d", sz, gates, n*(n-1)/2)
		}
		if bound := 3*n + 8; cycles > bound {
			t.Fatalf("hexagon %v: %d cycles exceeds %d", sz, cycles, bound)
		}
	}
}

func TestHexagonUPathExchangesColumns(t *testing.T) {
	a := arch.Hexagon(4, 2)
	st := NewState(a, 8, nil, graph.Complete(8))
	sc := newScope(st, []int{0, 1, 2, 3, 4, 5, 6, 7})
	p := uPath(nil, a, 0, 0, 3)
	if p == nil {
		t.Fatal("no U-path for columns 0,1")
	}
	linear(st, [][]int{p}, linearOpts{sc: sc, preserveDynamics: true}, func(Step) {})
	// Column 0 holds logicals {0,2,4,6}? Physical layout: qubit r*2+c.
	// Logical l started at phys l; column of phys q is q%2.
	for l := 0; l < 8; l++ {
		startCol := l % 2
		nowCol := st.L2P[l] % 2
		if nowCol == startCol {
			t.Fatalf("logical %d did not change column (phys %d)", l, st.L2P[l])
		}
	}
}

func TestHeavyHexCliqueCoverage(t *testing.T) {
	for _, sz := range [][2]int{{2, 4}, {2, 8}, {3, 8}, {4, 12}} {
		a := arch.HeavyHex(sz[0], sz[1])
		n := a.N()
		cycles, gates := runChecked(t, a, graph.Complete(n))
		if gates != n*(n-1)/2 {
			t.Fatalf("heavyhex %v: %d gates, want %d", sz, gates, n*(n-1)/2)
		}
		if bound := 8*n + 16; cycles > bound {
			t.Fatalf("heavyhex %v: %d cycles exceeds %d", sz, cycles, bound)
		}
	}
}

func TestMumbaiCliqueCoverage(t *testing.T) {
	a := arch.Mumbai()
	n := a.N()
	_, gates := runChecked(t, a, graph.Complete(n))
	if gates != n*(n-1)/2 {
		t.Fatalf("mumbai: %d gates, want %d", gates, n*(n-1)/2)
	}
}

func TestLattice3DCliqueCoverage(t *testing.T) {
	a := arch.Lattice3D(3, 3, 3)
	n := a.N()
	cycles, gates := runChecked(t, a, graph.Complete(n))
	if gates != n*(n-1)/2 {
		t.Fatalf("lattice3d: %d gates", gates)
	}
	if cycles > n+2 {
		t.Fatalf("snake ATA took %d cycles", cycles)
	}
}

func TestATASparseRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	archs := []*arch.Arch{
		arch.Grid(5, 5),
		arch.Sycamore(5, 5),
		arch.Hexagon(4, 6),
		arch.HeavyHex(2, 8),
	}
	for _, a := range archs {
		for trial := 0; trial < 5; trial++ {
			n := a.N()
			p := graph.Gnp(n, 0.3, rng)
			st := NewState(a, n, nil, p)
			if err := ATA(st, arch.FullRegion(a), func(Step) {}); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			if !st.Want.Empty() {
				t.Fatalf("%s trial %d: %d edges left", a.Name, trial, st.Want.Len())
			}
		}
	}
}

func TestATASparseCheaperThanClique(t *testing.T) {
	a := arch.Grid(6, 6)
	n := a.N()
	cliqueSt := NewState(a, n, nil, graph.Complete(n))
	var cliqueC Counter
	if err := ATA(cliqueSt, arch.FullRegion(a), cliqueC.Emit); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sparse := graph.Gnp(n, 0.1, rng)
	sparseSt := NewState(a, n, nil, sparse)
	var sparseC Counter
	if err := ATA(sparseSt, arch.FullRegion(a), sparseC.Emit); err != nil {
		t.Fatal(err)
	}
	if sparseC.CX >= cliqueC.CX {
		t.Fatalf("sparse CX %d not below clique CX %d", sparseC.CX, cliqueC.CX)
	}
	if sparseC.Cycles > cliqueC.Cycles {
		t.Fatalf("sparse cycles %d exceed clique cycles %d", sparseC.Cycles, cliqueC.Cycles)
	}
}

func TestATARegionRestricted(t *testing.T) {
	a := arch.Grid(6, 6)
	// Logical qubits 0..8 mapped into the top-left 3x3 corner; the problem
	// is a clique over them. The region-restricted pattern must finish and
	// never touch qubits outside the rectangle.
	var initial []int
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			initial = append(initial, r*6+c)
		}
	}
	st := NewState(a, 9, initial, graph.Complete(9))
	region := arch.Region{U0: 0, U1: 2, P0: 0, P1: 2}
	outside := func(q int) bool { return a.Coords[q].Row > 2 || a.Coords[q].Col > 2 }
	err := ATA(st, region, func(s Step) {
		for _, g := range s.Compute {
			if outside(g.P) || outside(g.Q) {
				t.Fatalf("compute outside region: (%d,%d)", g.P, g.Q)
			}
		}
		for _, l := range s.Swaps {
			for _, e := range l {
				if outside(e.U) || outside(e.V) {
					t.Fatalf("swap outside region: %v", e)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Want.Empty() {
		t.Fatalf("region ATA left %d edges", st.Want.Len())
	}
}

func TestCounterAccounting(t *testing.T) {
	var c Counter
	c.Emit(Step{
		Compute: []PhysGate{{P: 0, Q: 1, Fused: true}, {P: 2, Q: 3}},
		Swaps:   [][]graph.Edge{{graph.NewEdge(4, 5)}},
	})
	if c.Gates != 2 || c.Fused != 1 || c.Swaps != 1 {
		t.Fatalf("counter: %+v", c)
	}
	if c.CX != 3+2+3 {
		t.Fatalf("CX = %d", c.CX)
	}
	if c.Cycles != 2 {
		t.Fatalf("cycles = %d", c.Cycles)
	}
}

func TestNormalizeRegionSycamore(t *testing.T) {
	a := arch.Sycamore(4, 4)
	r := NormalizeRegion(a, arch.Region{U0: 2, U1: 2, P0: 0, P1: 3})
	if r.U1 <= r.U0 {
		t.Fatalf("single-row sycamore region not widened: %+v", r)
	}
}

func TestHeavyHexPassesWithinBudget(t *testing.T) {
	// Cliques must complete within the structured passes — the straggler
	// router must not be needed. Detect router use by its signature single-
	// swap steps exceeding a sane count.
	a := arch.HeavyHex(3, 8)
	n := a.N()
	st := NewState(a, n, nil, graph.Complete(n))
	singleSwapSteps := 0
	err := ATA(st, arch.FullRegion(a), func(s Step) {
		if len(s.Compute) == 0 && len(s.Swaps) == 1 && len(s.Swaps[0]) == 1 {
			singleSwapSteps++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Want.Empty() {
		t.Fatalf("%d edges left", st.Want.Len())
	}
	if singleSwapSteps > n {
		t.Fatalf("straggler router dominated: %d single-swap steps", singleSwapSteps)
	}
}

func TestUPathBothRungParities(t *testing.T) {
	a := arch.Hexagon(6, 4)
	// Column pair (0,1): rungs at even rows -> full range [0,5] crosses at
	// the top (row 0). Column pair (1,2): rungs at odd rows -> crosses at
	// the bottom (row 5).
	for c := 0; c < 3; c++ {
		p := uPath(nil, a, c, 0, 5)
		if p == nil {
			t.Fatalf("no U-path for columns (%d,%d)", c, c+1)
		}
		if len(p) != 12 {
			t.Fatalf("U-path length %d", len(p))
		}
		for i := 0; i+1 < len(p); i++ {
			if !a.G.HasEdge(p[i], p[i+1]) {
				t.Fatalf("columns (%d,%d): step %d->%d uncoupled", c, c+1, p[i], p[i+1])
			}
		}
		// First half one column, second half the other.
		unitOf, _ := a.UnitIndex()
		for i, q := range p {
			wantCol := c
			if i >= 6 {
				wantCol = c + 1
			}
			if unitOf[q] != wantCol {
				t.Fatalf("U-path slot %d in column %d, want %d", i, unitOf[q], wantCol)
			}
		}
	}
}

func TestUPathSubRange(t *testing.T) {
	a := arch.Hexagon(6, 4)
	// Even-height sub-ranges at both offsets must still produce paths.
	for _, rg := range [][2]int{{0, 3}, {1, 4}, {2, 5}, {0, 5}} {
		for c := 0; c < 3; c++ {
			p := uPath(nil, a, c, rg[0], rg[1])
			if p == nil {
				t.Fatalf("no U-path for cols (%d,%d) rows %v", c, c+1, rg)
			}
			for i := 0; i+1 < len(p); i++ {
				if !a.G.HasEdge(p[i], p[i+1]) {
					t.Fatalf("cols (%d,%d) rows %v: uncoupled step", c, c+1, rg)
				}
			}
		}
	}
}
