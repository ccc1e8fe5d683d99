package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// searchID is the binary-search lookup the hashed EdgeIndex replaced,
// kept as the differential oracle: an edge's id is the number of
// canonical edges with a smaller first endpoint plus v's position among
// u's neighbours above u.
func searchID(g *Graph, u, v int) int {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= g.n || u == v {
		return -1
	}
	i, found := slices.BinarySearch(g.sorted[u], int32(v))
	if !found {
		return -1
	}
	base := 0
	for w := 0; w < u; w++ {
		base += len(g.above(w))
	}
	return base + i - (len(g.sorted[u]) - len(g.above(u)))
}

// checkIndexAgainstSearch requires g's EdgeIndex to answer every pair
// the way the binary-search oracle does, including out-of-range,
// negative and self-loop pairs.
func checkIndexAgainstSearch(t *testing.T, g *Graph) {
	t.Helper()
	ix := g.EdgeIndex()
	if ix.M() != g.M() {
		t.Fatalf("EdgeIndex.M = %d, graph has %d edges", ix.M(), g.M())
	}
	n := g.N()
	for u := -2; u <= n+1; u++ {
		for v := -2; v <= n+1; v++ {
			if got, want := ix.ID(u, v), searchID(g, u, v); got != want {
				t.Fatalf("n=%d m=%d: ID(%d,%d) = %d, binary search %d", n, g.M(), u, v, got, want)
			}
		}
	}
	for id, e := range g.Edges() {
		if got := ix.ID(e.U, e.V); got != id {
			t.Fatalf("ID%v = %d, want its position %d in Edges()", e, got, id)
		}
	}
}

func TestEdgeIndexMatchesSearch(t *testing.T) {
	graphs := []*Graph{New(0), New(1), New(2), Path(2), Complete(9), Cycle(17), FromEdges(40, []Edge{{0, 39}, {3, 4}, {38, 39}})}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 16, 50, 130} {
		for _, p := range []float64{0.05, 0.3, 0.9} {
			graphs = append(graphs, Gnp(n, p, rng))
		}
	}
	for _, g := range graphs {
		checkIndexAgainstSearch(t, g)
	}
	var zero EdgeIndex
	if zero.M() != 0 || zero.ID(0, 1) != -1 {
		t.Fatalf("zero EdgeIndex: M = %d, ID(0,1) = %d", zero.M(), zero.ID(0, 1))
	}
}

// FuzzEdgeIndexMatchesSearch: for any AddEdge sequence, the hashed
// lookup agrees with the binary search on every pair.
func FuzzEdgeIndexMatchesSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{5, 0, 1, 1, 0, 2, 2, 3, 4, 4, 3, 0, 1})
	f.Add([]byte{23, 9, 3, 3, 9, 17, 0, 0, 17, 5, 5, 22, 1, 1, 22, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _ := replay(data)
		checkIndexAgainstSearch(t, g)
	})
}

func TestIndexEdges(t *testing.T) {
	es := []Edge{{4, 7}, {0, 1}, {2, 9}, {1, 3}}
	ix := IndexEdges(10, es)
	if ix.M() != len(es) {
		t.Fatalf("M = %d, want %d", ix.M(), len(es))
	}
	for id, e := range es {
		if ix.ID(e.V, e.U) != id {
			t.Fatalf("ID(%d,%d) = %d, want its position %d", e.V, e.U, ix.ID(e.V, e.U), id)
		}
	}
	if ix.ID(0, 2) != -1 || ix.ID(7, 10) != -1 {
		t.Fatalf("non-edges numbered: ID(0,2) = %d, ID(7,10) = %d", ix.ID(0, 2), ix.ID(7, 10))
	}
	for _, bad := range [][]Edge{{{3, 2}}, {{2, 2}}, {{-1, 2}}, {{2, 10}}, {{1, 2}, {1, 2}}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "graph: edge") {
					t.Fatalf("IndexEdges(10, %v): recovered %v, want a graph panic", bad, r)
				}
			}()
			IndexEdges(10, bad)
		}()
	}
}
