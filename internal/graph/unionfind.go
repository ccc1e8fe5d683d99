package graph

// UnionFind is a standard disjoint-set structure with path compression and
// union by size.
type UnionFind struct {
	parent []int
	size   []int
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Init(make([]int, n), make([]int, n))
	return uf
}

// Init makes uf len(parent) singleton sets kept in the caller's parent and
// size slices, which must have the same length; uf allocates nothing of
// its own. size[r] is the size of root r's set.
func (uf *UnionFind) Init(parent, size []int) {
	uf.parent, uf.size = parent, size
	for i := range parent {
		parent[i], size[i] = i, 1
	}
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}
