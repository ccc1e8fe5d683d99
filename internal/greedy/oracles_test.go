package greedy

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// The conflict colouring and SWAP matching the reference scheduler in
// reference_test.go runs, kept here with their own tests because only
// that oracle uses them: engine.go replays both over packed arrays.

// weightedEdge is an edge with a real weight, used by the SWAP-insertion
// matching (paper §6.2: candidate SWAPs are matched so that gates land on
// low-error links; the weights encode error-rate variability).
type weightedEdge struct {
	graph.Edge
	W float64
}

// maxWeightMatching returns a matching (set of vertex-disjoint edges, as
// indices into cand) that heuristically maximises total weight: greedy by
// descending weight followed by a single local-improvement sweep that tries
// replacing one chosen edge with two compatible unchosen ones.
//
// Exact maximum-weight matching (blossom) is overkill here: the candidate
// sets are per-cycle SWAP proposals of size O(frontier), and the paper's
// compiler only needs a good, fast matching each cycle.
func maxWeightMatching(cand []weightedEdge) []int {
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if cand[order[a]].W != cand[order[b]].W {
			return cand[order[a]].W > cand[order[b]].W
		}
		// Deterministic tie-break.
		ea, eb := cand[order[a]].Edge, cand[order[b]].Edge
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})

	used := make(map[int]int) // vertex -> chosen candidate index
	chosen := make([]bool, len(cand))
	for _, i := range order {
		e := cand[i].Edge
		if _, ok := used[e.U]; ok {
			continue
		}
		if _, ok := used[e.V]; ok {
			continue
		}
		chosen[i] = true
		used[e.U] = i
		used[e.V] = i
	}

	// One improvement sweep: for each unchosen edge blocked by exactly one
	// chosen edge, check whether dropping the blocker and adding this edge
	// plus another now-free edge increases the total weight.
	improve := func() bool {
		for i := range cand {
			if chosen[i] {
				continue
			}
			e := cand[i].Edge
			bu, okU := used[e.U]
			bv, okV := used[e.V]
			var blocker int
			switch {
			case okU && okV && bu == bv:
				blocker = bu
			case okU && !okV:
				blocker = bu
			case okV && !okU:
				blocker = bv
			default:
				continue
			}
			// Tentatively remove blocker, add i, then greedily add the best
			// edge that uses the freed endpoint(s).
			be := cand[blocker].Edge
			delete(used, be.U)
			delete(used, be.V)
			used[e.U], used[e.V] = i, i
			gain := cand[i].W - cand[blocker].W
			extra := -1
			for j := range cand {
				if chosen[j] || j == i {
					continue
				}
				f := cand[j].Edge
				if _, ok := used[f.U]; ok {
					continue
				}
				if _, ok := used[f.V]; ok {
					continue
				}
				if extra < 0 || cand[j].W > cand[extra].W {
					extra = j
				}
			}
			if extra >= 0 {
				gain += cand[extra].W
			}
			if gain > 1e-12 {
				chosen[blocker] = false
				chosen[i] = true
				if extra >= 0 {
					chosen[extra] = true
					f := cand[extra].Edge
					used[f.U], used[f.V] = extra, extra
				}
				return true
			}
			// Revert.
			delete(used, e.U)
			delete(used, e.V)
			used[be.U], used[be.V] = blocker, blocker
		}
		return false
	}
	for sweep := 0; sweep < 4 && improve(); sweep++ {
	}

	var out []int
	for i, ok := range chosen {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// greedyColoring colours the graph with the largest-degree-first greedy
// heuristic and returns one colour per vertex (colours are 0-based, dense).
// The compiler's gate-scheduling module (paper §6.2) colours a conflict
// graph whose nodes are hardware-compliant gates and picks the largest
// colour class to schedule in the next cycle.
func greedyColoring(g *graph.Graph) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = -1
	}
	var used []bool
	for _, v := range order {
		used = used[:0]
		for range g.Neighbors(v) {
			used = append(used, false)
		}
		used = append(used, false) // colour Degree(v) always available
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c >= 0 && c < len(used) {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// colorClasses groups vertices by colour; classes[c] lists the vertices of
// colour c, ascending.
func colorClasses(colors []int) [][]int {
	max := -1
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	classes := make([][]int, max+1)
	for v, c := range colors {
		if c >= 0 {
			classes[c] = append(classes[c], v)
		}
	}
	return classes
}

// largestColorClass returns the vertices of the most populous colour class.
func largestColorClass(colors []int) []int {
	classes := colorClasses(colors)
	best := 0
	for i, cl := range classes {
		if len(cl) > len(classes[best]) {
			best = i
		}
	}
	if len(classes) == 0 {
		return nil
	}
	return classes[best]
}

func TestGreedyColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(40, 0.3, rng)
	colors := greedyColoring(g)
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			t.Fatalf("edge %v monochromatic (colour %d)", e, colors[e.U])
		}
	}
}

func TestGreedyColoringBipartiteUsesFewColors(t *testing.T) {
	// A path is 2-colourable and largest-first greedy achieves it.
	colors := greedyColoring(graph.Path(20))
	max := 0
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	if max > 1 {
		t.Fatalf("path coloured with %d colours", max+1)
	}
}

func TestColorClassesAndLargest(t *testing.T) {
	colors := []int{0, 1, 0, 2, 0, 1}
	classes := colorClasses(colors)
	if len(classes) != 3 {
		t.Fatalf("classes = %v", classes)
	}
	lg := largestColorClass(colors)
	if len(lg) != 3 || lg[0] != 0 || lg[1] != 2 || lg[2] != 4 {
		t.Fatalf("largest class %v", lg)
	}
}

func TestMaxWeightMatchingDisjoint(t *testing.T) {
	cand := []weightedEdge{
		{graph.NewEdge(0, 1), 1.0},
		{graph.NewEdge(1, 2), 5.0},
		{graph.NewEdge(2, 3), 1.0},
		{graph.NewEdge(3, 4), 5.0},
	}
	idx := maxWeightMatching(cand)
	usedV := map[int]bool{}
	total := 0.0
	for _, i := range idx {
		e := cand[i].Edge
		if usedV[e.U] || usedV[e.V] {
			t.Fatalf("matching not vertex-disjoint at %v", e)
		}
		usedV[e.U], usedV[e.V] = true, true
		total += cand[i].W
	}
	if total < 10 {
		t.Fatalf("matching weight %v, want 10 (edges 1 and 3)", total)
	}
}

func TestMaxWeightMatchingImprovement(t *testing.T) {
	// Greedy picks the middle edge (weight 3); optimal picks the two side
	// edges (2+2=4). The improvement sweep must recover it.
	cand := []weightedEdge{
		{graph.NewEdge(0, 1), 2.0},
		{graph.NewEdge(1, 2), 3.0},
		{graph.NewEdge(2, 3), 2.0},
	}
	idx := maxWeightMatching(cand)
	total := 0.0
	for _, i := range idx {
		total += cand[i].W
	}
	if total < 4 {
		t.Fatalf("matching weight %v, want 4", total)
	}
}

// Property: matchings returned by maxWeightMatching are always vertex-disjoint
// subsets of the candidates, for random candidate sets.
func TestMaxWeightMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := rng.Intn(40)
		cand := make([]weightedEdge, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			cand = append(cand, weightedEdge{graph.NewEdge(u, v), rng.Float64()})
		}
		idx := maxWeightMatching(cand)
		used := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= len(cand) {
				return false
			}
			e := cand[i].Edge
			if used[e.U] || used[e.V] {
				return false
			}
			used[e.U], used[e.V] = true, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
