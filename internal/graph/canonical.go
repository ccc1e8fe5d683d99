package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sort"
)

// canonicalBudget bounds how many discrete leaves the individualization-
// refinement search in CanonicalForm may visit. Interaction graphs are
// small (the service caps them at ~1024 vertices) and almost always
// rigid after one round of refinement, so the budget exists only to keep
// adversarially symmetric inputs (unions of cliques, circulants) from
// going exponential. Exhaustion degrades to a deterministic — but
// labeling-dependent — certificate; see CanonicalForm's soundness note.
const canonicalBudget = 2048

// CanonicalForm computes a canonical labeling of g: a permutation perm
// with perm[v] = the canonical index of vertex v, and a hash over the
// edge set rewritten into canonical indices.
//
// Two labelings of the same graph produce the same hash whenever the
// search completes within its budget (the common case: one refinement
// round plus a handful of branches). The converse is unconditional and
// is what cache correctness rests on: equal hashes imply the two graphs
// are isomorphic, because the hash covers the full canonical edge list —
// equal certificates mean perm_a(A) and perm_b(B) are the same labeled
// graph, so perm_b⁻¹∘perm_a is an isomorphism. A budget-exhausted search
// can therefore only cause cache misses, never false sharing.
//
// The algorithm is 1-WL color refinement plus individualization: refine
// degrees to a stable partition, and while any color class holds more
// than one vertex, branch on each member of the first such class,
// keeping the branch whose fully-refined certificate is lexicographically
// smallest.
func CanonicalForm(g *Graph) (perm []int, hash [32]byte) {
	n := g.N()
	if n == 0 {
		return nil, sha256.Sum256(certificate(g, nil))
	}
	s := &canonSearch{g: g, budget: canonicalBudget}
	init := make([]int, n)
	for v := 0; v < n; v++ {
		init[v] = g.Degree(v)
	}
	s.search(init)
	return s.bestPerm, sha256.Sum256(s.bestCert)
}

// CanonicalHash is CanonicalForm without the permutation.
func CanonicalHash(g *Graph) [32]byte {
	_, h := CanonicalForm(g)
	return h
}

type canonSearch struct {
	g        *Graph
	budget   int
	bestCert []byte
	bestPerm []int
}

// search refines colors and either records the discrete partition's
// certificate or branches on the first non-singleton color class. The
// first branch of every class is always taken so at least one leaf is
// reached even with a spent budget; alternatives are pruned once the
// budget runs out.
func (s *canonSearch) search(colors []int) {
	colors = s.refine(colors)
	cell := firstNonSingleton(colors)
	if cell == nil {
		s.budget--
		perm := make([]int, len(colors))
		copy(perm, colors)
		cert := certificate(s.g, perm)
		if s.bestCert == nil || bytes.Compare(cert, s.bestCert) < 0 {
			s.bestCert, s.bestPerm = cert, perm
		}
		return
	}
	for i, v := range cell {
		if i > 0 && s.budget <= 0 {
			return
		}
		s.search(individualize(colors, v))
	}
}

// refine runs 1-WL color refinement to a fixpoint: each round recolors
// every vertex by (its color, the sorted multiset of its neighbors'
// colors), with new color ids assigned in sorted signature order so the
// result is independent of the input labeling. The partition only ever
// splits, so the fixpoint is reached when the class count stops growing.
func (s *canonSearch) refine(colors []int) []int {
	n := s.g.N()
	cur := normalizeColors(colors)
	classes := countClasses(cur)
	sigs := make([]string, n)
	var buf []byte
	for {
		for v := 0; v < n; v++ {
			nb := make([]int, 0, s.g.Degree(v))
			for _, w := range s.g.Neighbors(v) {
				nb = append(nb, cur[w])
			}
			sort.Ints(nb)
			buf = buf[:0]
			buf = binary.AppendUvarint(buf, uint64(cur[v]))
			for _, c := range nb {
				buf = binary.AppendUvarint(buf, uint64(c+1))
			}
			sigs[v] = string(buf)
		}
		next := normalizeStrings(sigs)
		nc := countClasses(next)
		if nc == classes {
			return next
		}
		cur, classes = next, nc
	}
}

// firstNonSingleton returns the members (ascending vertex order) of the
// lowest color class with more than one vertex, or nil when the
// partition is discrete.
func firstNonSingleton(colors []int) []int {
	counts := make([]int, len(colors))
	for _, c := range colors {
		counts[c]++
	}
	target := -1
	for c, k := range counts {
		if k > 1 {
			target = c
			break
		}
	}
	if target < 0 {
		return nil
	}
	var cell []int
	for v, c := range colors {
		if c == target {
			cell = append(cell, v)
		}
	}
	return cell
}

// individualize splits v out of its color class, ordering it before the
// remainder: every color doubles and v's drops by one, which the next
// refine round renormalizes.
func individualize(colors []int, v int) []int {
	out := make([]int, len(colors))
	for w, c := range colors {
		out[w] = 2 * c
	}
	out[v]--
	return out
}

// normalizeColors renumbers colors to 0..k-1 preserving their order.
func normalizeColors(colors []int) []int {
	uniq := append([]int(nil), colors...)
	sort.Ints(uniq)
	uniq = dedupInts(uniq)
	rank := make(map[int]int, len(uniq))
	for i, c := range uniq {
		rank[c] = i
	}
	out := make([]int, len(colors))
	for v, c := range colors {
		out[v] = rank[c]
	}
	return out
}

// normalizeStrings assigns each distinct signature its rank in sorted
// order — the step that keeps refinement labeling-independent.
func normalizeStrings(sigs []string) []int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	uniq = dedupStrings(uniq)
	rank := make(map[string]int, len(uniq))
	for i, s := range uniq {
		rank[s] = i
	}
	out := make([]int, len(sigs))
	for v, s := range sigs {
		out[v] = rank[s]
	}
	return out
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func dedupStrings(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func countClasses(colors []int) int {
	seen := make([]bool, len(colors))
	n := 0
	for _, c := range colors {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

// certificate serializes g under perm: vertex count, edge count, then
// the relabeled edge list sorted — a complete, order-free description of
// the permuted graph. Each relabeled edge packs into one uint64 (u<<32|v,
// u<v), so sorting the packed words orders the pairs lexicographically.
func certificate(g *Graph, perm []int) []byte {
	ps := make([]uint64, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, w := range g.above(u) {
			a, b := perm[u], perm[w]
			if a > b {
				a, b = b, a
			}
			ps = append(ps, uint64(a)<<32|uint64(b))
		}
	}
	slices.Sort(ps)
	out := make([]byte, 0, 2*binary.MaxVarintLen32*(len(ps)+1))
	out = binary.AppendUvarint(out, uint64(g.N()))
	out = binary.AppendUvarint(out, uint64(len(ps)))
	for _, p := range ps {
		out = binary.AppendUvarint(out, p>>32)
		out = binary.AppendUvarint(out, p&math.MaxUint32)
	}
	return out
}

// Relabel returns the graph with vertex v renamed to perm[v]. perm must
// be a bijection on [0, g.N()).
func Relabel(g *Graph, perm []int) *Graph {
	out := New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e.U], perm[e.V])
	}
	return out
}
