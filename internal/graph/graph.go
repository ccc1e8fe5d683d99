// Package graph provides the undirected-graph substrate used throughout the
// compiler: problem graphs (QAOA interaction graphs), coupling graphs, and
// the algorithms the paper's components rely on (BFS distances, connected
// components, greedy colouring, weighted matching, random generators).
//
// Vertices are dense integers 0..N-1. Edges are unordered pairs.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an unordered pair of vertices. The canonical form has U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical (U < V) form of the edge {u, v}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not w. It panics if w is not an
// endpoint; callers must only pass endpoints.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: %d is not an endpoint of %v", w, e))
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph over vertices 0..N-1.
// The zero value is an empty graph with no vertices; use New.
//
// Each vertex keeps its neighbours twice: in insertion order (adj), which
// is the order Neighbors returns and so the order every traversal —
// BFS, colouring, greedy routing — visits them in; and ascending
// (sorted), which answers membership by binary search and yields Edges in
// canonical order without a sort.
type Graph struct {
	n      int
	m      int
	adj    [][]int
	sorted [][]int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d out of range", n))
	}
	return &Graph{
		n:      n,
		adj:    make([][]int, n),
		sorted: make([][]int32, n),
	}
}

// FromEdges builds a graph on n vertices with the given edges.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// ignored. It panics on out-of-range vertices.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	i, found := slices.BinarySearch(g.sorted[u], int32(v))
	if found {
		return
	}
	j, _ := slices.BinarySearch(g.sorted[v], int32(u))
	g.sorted[u] = slices.Insert(g.sorted[u], i, int32(v))
	g.sorted[v] = slices.Insert(g.sorted[v], j, int32(u))
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if len(g.sorted[v]) < len(g.sorted[u]) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.sorted[u], int32(v))
	return found
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v in insertion order. The
// returned slice is shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// above returns u's neighbours greater than u, ascending: the second
// endpoints of the canonical edges whose first endpoint is u.
func (g *Graph) above(u int) []int32 {
	nb := g.sorted[u]
	i, _ := slices.BinarySearch(nb, int32(u))
	return nb[i:]
}

// Edges returns all edges in canonical order: ascending by U, then by V.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.above(u) {
			es = append(es, Edge{U: u, V: int(v)})
		}
	}
	return es
}

// EdgeIndex numbers a graph's edges by their position in Edges() and
// answers an edge's id in O(1): an open-addressed table with linear
// probing, at least twice as many slots as edges, over the edges' packed
// endpoints u<<32|v (u < v). Memory is O(N+M) whatever the graph. It is
// a snapshot: adding edges to the graph afterwards invalidates it.
type EdgeIndex struct {
	// slots holds id+1 of the edge in each slot, 0 when the slot is empty.
	slots []int32
	// keys[id] is edge id's packed endpoints.
	keys  []uint64
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash's top bits
	n     int
}

// EdgeIndex builds the edge numbering of g in O(N log Δ + M).
func (g *Graph) EdgeIndex() EdgeIndex {
	x := newEdgeIndex(g.n, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.above(u) {
			x.insert(u, int(v))
		}
	}
	return x
}

// IndexEdges numbers es, distinct edges of a graph on n vertices each in
// canonical (U < V) form, by their position in es. It panics on an
// out-of-range, non-canonical or repeated edge.
func IndexEdges(n int, es []Edge) EdgeIndex {
	x := newEdgeIndex(n, len(es))
	for _, e := range es {
		if e.U < 0 || e.U >= e.V || e.V >= n || e.V > math.MaxInt32 {
			panic(fmt.Sprintf("graph: edge %v not canonical in [0,%d)", e, n))
		}
		x.insert(e.U, e.V)
	}
	return x
}

func newEdgeIndex(n, m int) EdgeIndex {
	size, shift := 1, uint(64)
	for size < 2*m {
		size, shift = size<<1, shift-1
	}
	return EdgeIndex{slots: make([]int32, size), keys: make([]uint64, 0, m), shift: shift, n: n}
}

// home returns the first slot probed for key (Fibonacci hashing).
func (x *EdgeIndex) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> x.shift)
}

// insert gives the edge (u, v), 0 <= u < v < n, the next id.
func (x *EdgeIndex) insert(u, v int) {
	key := uint64(u)<<32 | uint64(v)
	mask := len(x.slots) - 1
	i := x.home(key)
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if x.keys[x.slots[i]-1] == key {
			panic(fmt.Sprintf("graph: edge (%d,%d) indexed twice", u, v))
		}
	}
	x.keys = append(x.keys, key)
	x.slots[i] = int32(len(x.keys))
}

// M returns the number of indexed edges; ids are 0..M-1.
func (x *EdgeIndex) M() int { return len(x.keys) }

// ID returns the id of edge {u, v}, or -1 if it is not an edge (including
// out-of-range vertices and self-loops).
func (x *EdgeIndex) ID(u, v int) int {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= x.n || u == v {
		return -1
	}
	key := uint64(u)<<32 | uint64(v)
	mask := len(x.slots) - 1
	for i := x.home(key); x.slots[i] != 0; i = (i + 1) & mask {
		if id := x.slots[i] - 1; x.keys[id] == key {
			return int(id)
		}
	}
	return -1
}

// Clone returns a deep copy of g with identical neighbour order.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int, g.n), sorted: make([][]int32, g.n)}
	for v := 0; v < g.n; v++ {
		c.adj[v] = slices.Clone(g.adj[v])
		c.sorted[v] = slices.Clone(g.sorted[v])
	}
	return c
}

// Density returns 2M / (N(N-1)), the fraction of clique edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(2*g.M()) / float64(g.n*(g.n-1))
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// BFSFrom returns the unweighted shortest-path distance from src to every
// vertex. Unreachable vertices get -1.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AllPairsDistances returns the full unweighted distance matrix via
// repeated BFS: O(N·(N+M)). Unreachable pairs get -1.
func (g *Graph) AllPairsDistances() [][]int {
	d := make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.BFSFrom(v)
	}
	return d
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph has at most one connected component
// among its non-isolated vertices and no unreachable vertex overall.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Complete returns the clique K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// Cycle returns the cycle graph on n vertices (n >= 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// relabelled to 0..len(vs)-1 in the order given, along with the mapping
// from new labels back to original vertices.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	idx := make(map[int]int, len(vs))
	for i, v := range vs {
		idx[v] = i
	}
	sub := New(len(vs))
	for i, v := range vs {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && j > i {
				sub.AddEdge(i, j)
			}
		}
	}
	back := make([]int, len(vs))
	copy(back, vs)
	return sub, back
}
