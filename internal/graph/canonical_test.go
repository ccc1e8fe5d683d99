package graph

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// randomPerm returns a uniform random bijection on [0, n).
func randomPerm(n int, rng *rand.Rand) []int {
	p := rng.Perm(n)
	return p
}

// latticeGraph builds a rows x cols grid-lattice interaction graph.
func latticeGraph(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// canonicalFamilies enumerates the graph families the cache's hashing
// must canonicalize: ER at three densities, random regular, and lattice.
func canonicalFamilies(seed int64) map[string]*Graph {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*Graph{
		"er-0.2":    GnpConnected(14, 0.2, rng),
		"er-0.5":    GnpConnected(12, 0.5, rng),
		"er-0.8":    GnpConnected(10, 0.8, rng),
		"regular-3": MustRandomRegular(12, 3, rng),
		"lattice":   latticeGraph(3, 4),
	}
}

// TestCanonicalFormRelabelingInvariant is the cache-sharing property:
// every random relabeling of a graph hashes to the same value, and the
// canonical permutations actually witness it — relabeling each graph by
// its own perm yields the identical edge set.
func TestCanonicalFormRelabelingInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for name, g := range canonicalFamilies(seed) {
			permG, hashG := CanonicalForm(g)
			canonG := Relabel(g, permG)
			rng := rand.New(rand.NewSource(seed * 31))
			for trial := 0; trial < 6; trial++ {
				relab := randomPerm(g.N(), rng)
				h := Relabel(g, relab)
				permH, hashH := CanonicalForm(h)
				if hashH != hashG {
					t.Fatalf("%s seed=%d trial=%d: relabeled graph hashes differently", name, seed, trial)
				}
				canonH := Relabel(h, permH)
				if !sameEdges(canonG, canonH) {
					t.Fatalf("%s seed=%d trial=%d: canonical forms differ despite equal hashes", name, seed, trial)
				}
			}
		}
	}
}

// TestCanonicalFormPermIsValid pins the returned permutation's contract:
// a bijection whose application produces exactly the certificate graph.
func TestCanonicalFormPermIsValid(t *testing.T) {
	for name, g := range canonicalFamilies(7) {
		perm, _ := CanonicalForm(g)
		if len(perm) != g.N() {
			t.Fatalf("%s: perm covers %d of %d vertices", name, len(perm), g.N())
		}
		seen := make([]bool, len(perm))
		for _, p := range perm {
			if p < 0 || p >= len(perm) || seen[p] {
				t.Fatalf("%s: perm %v is not a bijection", name, perm)
			}
			seen[p] = true
		}
		if got := Relabel(g, perm); got.M() != g.M() {
			t.Fatalf("%s: relabeling changed edge count %d -> %d", name, g.M(), got.M())
		}
	}
}

// TestCanonicalHashNearMiss: adding or removing a single edge must
// change the hash — near-isomorphic inputs may not share cache entries.
func TestCanonicalHashNearMiss(t *testing.T) {
	for name, g := range canonicalFamilies(3) {
		base := CanonicalHash(g)
		edges := g.Edges()

		// Remove each of the first few edges.
		for i, e := range edges {
			if i >= 4 {
				break
			}
			smaller := New(g.N())
			for _, f := range edges {
				if f != e {
					smaller.AddEdge(f.U, f.V)
				}
			}
			if CanonicalHash(smaller) == base {
				t.Fatalf("%s: removing edge %v left the hash unchanged", name, e)
			}
		}

		// Add the first few absent edges.
		added := 0
		for u := 0; u < g.N() && added < 4; u++ {
			for v := u + 1; v < g.N() && added < 4; v++ {
				if g.HasEdge(u, v) {
					continue
				}
				bigger := g.Clone()
				bigger.AddEdge(u, v)
				if CanonicalHash(bigger) == base {
					t.Fatalf("%s: adding edge (%d,%d) left the hash unchanged", name, u, v)
				}
				added++
			}
		}
	}
}

// TestCanonicalHashDistinguishesSizes: same edge structure on a larger
// vertex set (extra isolated vertices) is a different problem.
func TestCanonicalHashDistinguishesSizes(t *testing.T) {
	g := Path(5)
	padded := New(7)
	for _, e := range g.Edges() {
		padded.AddEdge(e.U, e.V)
	}
	if CanonicalHash(g) == CanonicalHash(padded) {
		t.Fatal("isolated-vertex padding did not change the hash")
	}
}

// torusGraph builds the rows x cols grid with wrap-around edges.
func torusGraph(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(r*cols+c, r*cols+(c+1)%cols)
			g.AddEdge(r*cols+c, ((r+1)%rows)*cols+c)
		}
	}
	return g
}

// hypercubeGraph builds the d-dimensional hypercube.
func hypercubeGraph(d int) *Graph {
	g := New(1 << d)
	for v := 0; v < 1<<d; v++ {
		for b := 0; b < d; b++ {
			g.AddEdge(v, v^1<<b)
		}
	}
	return g
}

// cliqueUnion builds k disjoint copies of K_size.
func cliqueUnion(k, size int) *Graph {
	g := New(k * size)
	for c := 0; c < k; c++ {
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				g.AddEdge(c*size+u, c*size+v)
			}
		}
	}
	return g
}

// disjointUnion places copies of the given graphs side by side.
func disjointUnion(parts ...*Graph) *Graph {
	n := 0
	for _, p := range parts {
		n += p.N()
	}
	g := New(n)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			g.AddEdge(off+e.U, off+e.V)
		}
		off += p.N()
	}
	return g
}

// paleyGraph builds the Paley graph on the prime p ≡ 1 (mod 4): strongly
// regular, so refinement alone splits nothing.
func paleyGraph(p int) *Graph {
	square := make([]bool, p)
	for x := 1; x < p; x++ {
		square[x*x%p] = true
	}
	g := New(p)
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			if square[v-u] {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// shrikhandeGraph is strongly regular with the parameters (16, 6, 2, 2) of
// the 4x4 rook's graph but not isomorphic to it.
func shrikhandeGraph() *Graph {
	g := New(16)
	id := func(i, j int) int { return (i%4)*4 + j%4 }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			g.AddEdge(id(i, j), id(i+1, j))
			g.AddEdge(id(i, j), id(i, j+1))
			g.AddEdge(id(i, j), id(i+1, j+1))
		}
	}
	return g
}

// rookGraph is the 4x4 rook's graph: two vertices adjacent when they share
// a row or a column.
func rookGraph() *Graph {
	g := New(16)
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v++ {
			if u/4 == v/4 || u%4 == v%4 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// symmetricFamilies are the highly symmetric inputs the automorphism
// pruning exists for, each with its canonicalization time ceiling.
func symmetricFamilies() []struct {
	name    string
	g       *Graph
	ceiling time.Duration
} {
	const ceiling = 50 * time.Millisecond
	return []struct {
		name    string
		g       *Graph
		ceiling time.Duration
	}{
		{"cycle-8", Cycle(8), ceiling},
		{"clique-6", Complete(6), ceiling},
		{"two-k3", cliqueUnion(2, 3), ceiling},
		{"K64", Complete(64), ceiling},
		{"K100", Complete(100), ceiling},
		{"K200", Complete(200), 2 * ceiling},
		{"C512", Cycle(512), ceiling},
		{"torus-32x32", torusGraph(32, 32), ceiling},
		{"9-cube", hypercubeGraph(9), ceiling},
		{"edgeless-512", New(512), ceiling},
		{"8xK8", cliqueUnion(8, 8), ceiling},
		{"6xC3+6xC4", disjointUnion(
			Cycle(3), Cycle(3), Cycle(3), Cycle(3), Cycle(3), Cycle(3),
			Cycle(4), Cycle(4), Cycle(4), Cycle(4), Cycle(4), Cycle(4)), ceiling},
		{"petersen", petersenGraph(), ceiling},
		{"regular-3-256", MustRandomRegular(256, 3, rand.New(rand.NewSource(3))), ceiling},
		{"paley-101", paleyGraph(101), ceiling},
		{"shrikhande", shrikhandeGraph(), ceiling},
		{"rook-4x4", rookGraph(), ceiling},
	}
}

// TestCanonicalFormSymmetricGraphs exercises the individualization
// branches and the automorphism pruning: these graphs have no discrete
// refinement, so the search must branch, prune by orbits, and still
// converge to one certificate per isomorphism class — each within its
// time ceiling (not enforced under -race or -short).
func TestCanonicalFormSymmetricGraphs(t *testing.T) {
	if CanonicalHash(shrikhandeGraph()) == CanonicalHash(rookGraph()) {
		t.Fatal("the Shrikhande and 4x4 rook's graphs hash alike")
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range symmetricFamilies() {
		start := time.Now()
		perm, base, complete := CanonicalFormContext(context.Background(), tc.g)
		took := time.Since(start)
		if !complete {
			t.Fatalf("%s: search gave up", tc.name)
		}
		if !testing.Short() && !raceEnabled && took > tc.ceiling {
			t.Errorf("%s: canonical form took %v, ceiling %v", tc.name, took, tc.ceiling)
		}
		t.Logf("%s: %v", tc.name, took)
		canon := Relabel(tc.g, perm)
		for trial := 0; trial < 8; trial++ {
			h := Relabel(tc.g, randomPerm(tc.g.N(), rng))
			permH, hashH, complete := CanonicalFormContext(context.Background(), h)
			if !complete || hashH != base {
				t.Fatalf("%s trial=%d: relabeling changed the hash (complete=%v)", tc.name, trial, complete)
			}
			if !sameEdges(canon, Relabel(h, permH)) {
				t.Fatalf("%s trial=%d: canonical forms differ despite equal hashes", tc.name, trial)
			}
		}
	}
}

// TestCanonicalFormEmptyAndTiny covers the degenerate sizes.
func TestCanonicalFormEmptyAndTiny(t *testing.T) {
	perm, h0 := CanonicalForm(New(0))
	if perm != nil {
		t.Fatalf("empty graph returned perm %v", perm)
	}
	_, h1 := CanonicalForm(New(1))
	if h0 == h1 {
		t.Fatal("0-vertex and 1-vertex graphs hash identically")
	}
}

func sameEdges(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// TestCanonicalFormCountsIsomorphismClasses hashes every labeled graph on
// n ≤ 6 vertices. Equal hashes imply isomorphism by construction, so the
// number of distinct hashes equals the number of isomorphism classes (OEIS
// A000088) exactly when every isomorphic pair also hashes alike.
func TestCanonicalFormCountsIsomorphismClasses(t *testing.T) {
	classes := []int{1, 1, 2, 4, 11, 34, 156}
	for n := 0; n < len(classes); n++ {
		var pairs []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, Edge{U: u, V: v})
			}
		}
		seen := make(map[[32]byte]bool)
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := New(n)
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(e.U, e.V)
				}
			}
			_, h, complete := CanonicalFormContext(context.Background(), g)
			if !complete {
				t.Fatalf("n=%d mask=%b: search gave up", n, mask)
			}
			seen[h] = true
		}
		if len(seen) != classes[n] {
			t.Errorf("n=%d: %d distinct hashes, want %d isomorphism classes", n, len(seen), classes[n])
		}
	}
}

// fuzzGraph builds a graph from fuzz input. Besides plain random graphs it
// builds circulants (vertex-transitive) and disjoint copies of a random
// graph, the symmetric shapes where the automorphism pruning does its work.
func fuzzGraph(kind, size uint8, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(size)%48
	switch kind % 3 {
	case 0:
		return Gnp(n, rng.Float64(), rng)
	case 1:
		g := New(n)
		for j := 1; j <= n/2; j++ {
			if rng.Intn(3) == 0 {
				for v := 0; v < n; v++ {
					g.AddEdge(v, (v+j)%n)
				}
			}
		}
		return g
	default:
		base := Gnp(1+n%8, rng.Float64(), rng)
		k := 1 + n/base.N()
		g := New(k * base.N())
		for c := 0; c < k; c++ {
			for _, e := range base.Edges() {
				g.AddEdge(c*base.N()+e.U, c*base.N()+e.V)
			}
		}
		return g
	}
}

// FuzzCanonicalFormRelabel: a graph and a random relabeling of it hash
// alike, each perm is a bijection, and relabeling each graph by its own
// perm gives the same labeled graph.
func FuzzCanonicalFormRelabel(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		f.Add(kind, uint8(12), int64(1), int64(2))
		f.Add(kind, uint8(40), int64(3), int64(4))
	}
	f.Fuzz(func(t *testing.T, kind, size uint8, seed, permSeed int64) {
		g := fuzzGraph(kind, size, seed)
		h := Relabel(g, rand.New(rand.NewSource(permSeed)).Perm(g.N()))
		pg, hg, cg := CanonicalFormContext(context.Background(), g)
		ph, hh, ch := CanonicalFormContext(context.Background(), h)
		if !cg || !ch {
			t.Fatalf("search gave up on a %d-vertex graph", g.N())
		}
		for _, p := range [][]int{pg, ph} {
			seen := make([]bool, g.N())
			for _, c := range p {
				if c < 0 || c >= g.N() || seen[c] {
					t.Fatalf("perm %v is not a bijection", p)
				}
				seen[c] = true
			}
		}
		if hg != hh {
			t.Fatalf("relabeling changed the hash (n=%d m=%d)", g.N(), g.M())
		}
		if !sameEdges(Relabel(g, pg), Relabel(h, ph)) {
			t.Fatal("canonical forms differ despite equal hashes")
		}
	})
}

// TestCanonicalFormContextGivesUp: an already-cancelled context stops the
// search at its first budget check. The fallback still returns a valid
// perm whose relabeling is the certificate the hash covers, so equal
// hashes keep implying isomorphism.
func TestCanonicalFormContextGivesUp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range []*Graph{Complete(64), Cycle(128), Gnp(40, 0.3, rand.New(rand.NewSource(1)))} {
		perm, hash, complete := CanonicalFormContext(ctx, g)
		if complete {
			t.Fatalf("n=%d: search completed under a cancelled context", g.N())
		}
		seen := make([]bool, g.N())
		for _, c := range perm {
			if c < 0 || c >= g.N() || seen[c] {
				t.Fatalf("n=%d: fallback perm is not a bijection", g.N())
			}
			seen[c] = true
		}
		// The fallback hash is the certificate of Relabel(g, perm) under the
		// identity labeling: a complete search of that graph may pick a
		// different labeling, but an identity-labeled give-up must match.
		_, again, _ := CanonicalFormContext(ctx, Relabel(g, perm))
		if again != hash {
			t.Fatalf("n=%d: fallback hash does not cover the relabeled edge list", g.N())
		}
	}
}
