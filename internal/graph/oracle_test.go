package graph

import (
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapGraph is the map-backed representation Graph replaced, kept as the
// differential oracle: an edge set for membership and per-vertex
// insertion-order adjacency.
type mapGraph struct {
	adj [][]int
	set map[Edge]struct{}
}

func newMapGraph(n int) *mapGraph {
	return &mapGraph{adj: make([][]int, n), set: make(map[Edge]struct{})}
}

func (o *mapGraph) addEdge(u, v int) {
	if u == v {
		return
	}
	e := NewEdge(u, v)
	if _, ok := o.set[e]; ok {
		return
	}
	o.set[e] = struct{}{}
	o.adj[u] = append(o.adj[u], v)
	o.adj[v] = append(o.adj[v], u)
}

func (o *mapGraph) edges() []Edge {
	es := make([]Edge, 0, len(o.set))
	//vet:ignore maprange collected edges are sorted before returning
	for e := range o.set {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// checkAgainstOracle requires g and o to agree on every query: M, Edges
// (order included), HasEdge on every pair and out-of-range probes,
// Neighbors order, and the EdgeIndex numbering.
func checkAgainstOracle(t *testing.T, g *Graph, o *mapGraph) {
	t.Helper()
	n := g.N()
	if g.M() != len(o.set) {
		t.Fatalf("M = %d, oracle %d", g.M(), len(o.set))
	}
	want := o.edges()
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges = %v, oracle %v", got, want)
	}
	ix := g.EdgeIndex()
	if ix.M() != len(want) {
		t.Fatalf("EdgeIndex.M = %d, oracle %d", ix.M(), len(want))
	}
	for id, e := range want {
		if got := ix.ID(e.U, e.V); got != id {
			t.Fatalf("ID%v = %d, want %d", e, got, id)
		}
		if got := ix.ID(e.V, e.U); got != id {
			t.Fatalf("ID(%d,%d) = %d, want %d", e.V, e.U, got, id)
		}
	}
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			_, ok := o.set[NewEdge(u, v)]
			ok = ok && u != v
			if g.HasEdge(u, v) != ok {
				t.Fatalf("HasEdge(%d,%d) = %v, oracle %v", u, v, !ok, ok)
			}
			if id := ix.ID(u, v); (id >= 0) != ok {
				t.Fatalf("ID(%d,%d) = %d, oracle membership %v", u, v, id, ok)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(g.Neighbors(v), o.adj[v]) {
			t.Fatalf("Neighbors(%d) = %v, oracle %v", v, g.Neighbors(v), o.adj[v])
		}
		if g.Degree(v) != len(o.adj[v]) {
			t.Fatalf("Degree(%d) = %d, oracle %d", v, g.Degree(v), len(o.adj[v]))
		}
	}
}

// replay builds a graph and its oracle from a byte program: the first
// byte picks n in [1, 24], each following byte pair is one AddEdge(u, v)
// reduced mod n, so duplicates, reversed pairs and self-loops all occur.
func replay(data []byte) (*Graph, *mapGraph) {
	if len(data) == 0 {
		return New(0), newMapGraph(0)
	}
	n := 1 + int(data[0])%24
	g, o := New(n), newMapGraph(n)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		g.AddEdge(u, v)
		o.addEdge(u, v)
	}
	return g, o
}

// FuzzGraphMatchesMapOracle: any AddEdge sequence leaves the sorted-list
// graph indistinguishable from the map-backed oracle.
func FuzzGraphMatchesMapOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 1, 0, 2, 2, 3, 4, 4, 3, 0, 1})
	f.Add([]byte{23, 9, 3, 3, 9, 17, 0, 0, 17, 5, 5, 22, 1, 1, 22, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, o := replay(data)
		checkAgainstOracle(t, g, o)
		checkAgainstOracle(t, g.Clone(), o)
	})
}

// TestGraphMatchesMapOracle runs random AddEdge sequences — dense enough
// to repeat pairs in both orientations, with self-loops mixed in —
// through the differential check.
func TestGraphMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+2*rng.Intn(120))
		rng.Read(data)
		g, o := replay(data)
		checkAgainstOracle(t, g, o)
	}
}

// TestCloneKeepsNeighborOrder: a clone traverses exactly like its
// original, since Neighbors order drives BFS, colouring and routing.
func TestCloneKeepsNeighborOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := GnpConnected(30, 0.4, rand.New(rand.NewSource(seed)))
		c := g.Clone()
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(c.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("seed %d: clone Neighbors(%d) = %v, original %v", seed, v, c.Neighbors(v), g.Neighbors(v))
			}
		}
	}
}

func petersenGraph() *Graph {
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
		g.AddEdge(i, i+5)
		g.AddEdge(5+i, 5+(i+2)%5)
	}
	return g
}

// TestCanonicalHashPinned pins the canonical hashes of the cell-splitting
// refinement search: any change to the refinement order or the leaf order
// changes cache keys, and must show up here.
func TestCanonicalHashPinned(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		hash string
	}{
		{"K8", Complete(8), "bc2b62bb33f10b6aa697ab4f3c0f2280a745ad2ae94b7746ffe3c4bd7ce8aaa0"},
		{"C12", Cycle(12), "81442a0ddb03dbc6370e0d57ba9ade0fedbba93103d9ddb36ea7e8cda53a9d77"},
		{"petersen", petersenGraph(), "11f75591271199fb4908b29e319d4ccbcebb2fb648e3b9db660ed4cc10c9ea9e"},
		{"grid-6x6", latticeGraph(6, 6), "e45a3ddd59b4b78a6b07944682a04e0d00443003b8e9506f02ccacc0cccf155e"},
		{"er-64-0.3", Gnp(64, 0.3, rand.New(rand.NewSource(1))), "2856c266f06349692513a476c4c5102d86bb479c8cb840585e4c96d4de920b33"},
	}
	for _, tc := range cases {
		h := CanonicalHash(tc.g)
		if got := hex.EncodeToString(h[:]); got != tc.hash {
			t.Errorf("%s: canonical hash %s, pinned %s", tc.name, got, tc.hash)
		}
	}
}
