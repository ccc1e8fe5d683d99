package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want (2,5)", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatalf("Other endpoints wrong for %v", e)
	}
}

func TestEdgeOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	NewEdge(1, 2).Other(3)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge(0,1) false")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edge present")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestCompleteGraph(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 10} {
		g := Complete(n)
		want := n * (n - 1) / 2
		if g.M() != want {
			t.Errorf("K_%d has %d edges, want %d", n, g.M(), want)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != n-1 {
				t.Errorf("K_%d degree(%d) = %d", n, v, g.Degree(v))
			}
		}
		if n >= 2 && g.Density() != 1 {
			t.Errorf("K_%d density = %v", n, g.Density())
		}
	}
}

func TestPathAndCycle(t *testing.T) {
	p := Path(5)
	if p.M() != 4 {
		t.Fatalf("Path(5) edges = %d", p.M())
	}
	c := Cycle(5)
	if c.M() != 5 {
		t.Fatalf("Cycle(5) edges = %d", c.M())
	}
	for v := 0; v < 5; v++ {
		if c.Degree(v) != 2 {
			t.Fatalf("Cycle degree(%d) = %d", v, c.Degree(v))
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(6)
	d := g.BFSFrom(0)
	for v := 0; v < 6; v++ {
		if d[v] != v {
			t.Fatalf("dist(0,%d) = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := g.BFSFrom(0)
	if d[2] != -1 {
		t.Fatalf("dist to isolated vertex = %d, want -1", d[2])
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestAllPairsDistancesSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GnpConnected(20, 0.2, rng)
	d := g.AllPairsDistances()
	for u := 0; u < 20; u++ {
		if d[u][u] != 0 {
			t.Fatalf("d[%d][%d] = %d", u, u, d[u][u])
		}
		for v := 0; v < 20; v++ {
			if d[u][v] != d[v][u] {
				t.Fatalf("asymmetric distance %d,%d", u, v)
			}
			if d[u][v] < 0 {
				t.Fatalf("connected graph has unreachable pair %d,%d", u, v)
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("second component %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != 4 {
		t.Fatalf("third component %v", comps[2])
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, back := g.InducedSubgraph([]int{1, 3, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K_3 wrong: n=%d m=%d", sub.N(), sub.M())
	}
	if back[0] != 1 || back[1] != 3 || back[2] != 4 {
		t.Fatalf("back map %v", back)
	}
}

func TestGnpDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gnp(200, 0.3, rng)
	d := g.Density()
	if d < 0.25 || d > 0.35 {
		t.Fatalf("G(200,0.3) density = %v, outside [0.25,0.35]", d)
	}
}

func TestGnpConnectedIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := GnpConnected(30, 0.05, rng)
		if !g.IsConnected() {
			t.Fatalf("sample %d not connected", i)
		}
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, d int }{{10, 3}, {16, 4}, {64, 19}, {20, 0}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("(%d,%d): degree(%d)=%d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Fatal("d >= n accepted")
	}
}

func TestRegularByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := RegularByDensity(64, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Density(); d < 0.25 || d > 0.35 {
		t.Fatalf("density %v not near 0.3", d)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if !uf.Union(0, 1) {
		t.Fatal("first union failed")
	}
	if uf.Union(1, 0) {
		t.Fatal("re-union succeeded")
	}
	uf.Union(2, 3)
	if uf.Find(0) == uf.Find(2) {
		t.Fatal("0 and 2 merged unexpectedly")
	}
	uf.Union(1, 3)
	if uf.Find(0) != uf.Find(2) {
		t.Fatal("transitive union failed")
	}
	if uf.Find(0) == uf.Find(4) {
		t.Fatal("singleton merged")
	}
}

// Property: BFS distances satisfy the triangle inequality along edges.
func TestBFSTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GnpConnected(15, 0.2, rng)
		d := g.AllPairsDistances()
		for _, e := range g.Edges() {
			for w := 0; w < g.N(); w++ {
				if abs(d[e.U][w]-d[e.V][w]) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestCloneIndependent(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.M() != g.M()+1 {
		t.Fatal("clone edge count wrong")
	}
}
