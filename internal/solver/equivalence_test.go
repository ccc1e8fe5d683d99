package solver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// assertEngineAgreement runs the packed engine (symmetry off and on) and the
// pre-optimization reference engine on one instance and fails unless all
// three prove the same optimal depth. The packed schedules are replayed;
// with symmetry on this also exercises the automorphism-frame extraction.
// Returns the agreed depth.
func assertEngineAgreement(t *testing.T, a *arch.Arch, p *graph.Graph, initial []int) int {
	t.Helper()
	ref, err := referenceSolve(context.Background(), a, p, initial, Options{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if d := assertPackedAgreement(t, a, p, initial); d != ref.Depth {
		t.Fatalf("packed engines proved depth %d, reference proved %d", d, ref.Depth)
	}
	return ref.Depth
}

// assertPackedAgreement is assertEngineAgreement without the reference, for
// instances beyond the oracle's reach: the packed engine with symmetry off
// and on must prove the same depth, and both schedules must replay.
func assertPackedAgreement(t *testing.T, a *arch.Arch, p *graph.Graph, initial []int) int {
	t.Helper()
	depth := -1
	for _, sym := range []bool{false, true} {
		res, err := SolveContext(context.Background(), a, p, initial, Options{Symmetry: sym})
		if err != nil {
			t.Fatalf("packed (symmetry=%v): %v", sym, err)
		}
		if depth >= 0 && res.Depth != depth {
			t.Fatalf("packed (symmetry=%v) proved depth %d, symmetry off proved %d", sym, res.Depth, depth)
		}
		depth = res.Depth
		replay(t, a, p, initial, res)
	}
	return depth
}

// TestEquivalenceRandomInstances is the equivalence oracle: ~100 random
// small instances (line and grid architectures crossed with Erdős–Rényi
// problems, half with random initial mappings) on which the packed engine —
// with and without symmetry canonicalization — must prove exactly the depth
// the preserved naive engine proves. Deterministic seed so failures replay.
func TestEquivalenceRandomInstances(t *testing.T) {
	archs := []*arch.Arch{
		arch.Line(3), arch.Line(4), arch.Line(5), arch.Line(6),
		arch.Grid(2, 2), arch.Grid(2, 3), arch.Grid(3, 3),
	}
	rng := rand.New(rand.NewSource(7))
	densities := []float64{0.3, 0.5, 0.7}
	total := 0
	for _, a := range archs {
		a := a
		np := a.N()
		for i := 0; i < 15; i++ {
			maxL := np
			if maxL > 6 {
				maxL = 6 // keep the naive oracle tractable on the 3x3 grid
			}
			nl := 2 + rng.Intn(maxL-1)
			p := graph.Gnp(nl, densities[i%len(densities)], rng)
			var initial []int
			if i%2 == 1 {
				initial = rng.Perm(np)[:nl]
			}
			total++
			t.Run(fmt.Sprintf("%s/n%d/i%d", a.Name, nl, i), func(t *testing.T) {
				assertEngineAgreement(t, a, p, initial)
			})
		}
	}
	if total < 100 {
		t.Fatalf("only %d instances generated, want >= 100", total)
	}
}

// TestEquivalenceFamiliesLarger re-proves the families_test.go instances at
// one size larger than the existing tests cover, against the oracle.
func TestEquivalenceFamiliesLarger(t *testing.T) {
	t.Run("sycamore-2x3-clique", func(t *testing.T) {
		// families_test covers K4 on sycamore-2x2.
		a := arch.Sycamore(2, 3)
		d := assertEngineAgreement(t, a, graph.Complete(a.N()), nil)
		t.Logf("K%d on %s: optimal depth %d", a.N(), a.Name, d)
	})
	t.Run("sycamore-2x3-bipartite", func(t *testing.T) {
		a := arch.Sycamore(2, 3)
		n := a.N()
		p := graph.New(n)
		for i := 0; i < n/2; i++ {
			for j := n / 2; j < n; j++ {
				p.AddEdge(i, j)
			}
		}
		d := assertEngineAgreement(t, a, p, nil)
		t.Logf("bipartite on %s: optimal depth %d", a.Name, d)
	})
	t.Run("hexagon-2x3-clique", func(t *testing.T) {
		// families_test covers K4 on hexagon-2x2; K5 on the next column
		// count (the full K8 clique is line-8-class and beyond the oracle).
		a := arch.Hexagon(2, 3)
		d := assertEngineAgreement(t, a, graph.Complete(5), nil)
		t.Logf("K5 on %s: optimal depth %d", a.Name, d)
	})
	t.Run("heavyhex-2x6-bridge", func(t *testing.T) {
		// families_test routes one far gate on HeavyHex(2, 4).
		a := arch.HeavyHex(2, 6)
		p := graph.New(a.N())
		p.AddEdge(0, 6) // far ends of the two rows, through the bridge
		assertEngineAgreement(t, a, p, nil)
	})
	// The 2xUnit bipartite sub-problem (§3.2) on 2x3 and, outside -short,
	// 2x4 grids.
	for _, cols := range []int{3, 4} {
		t.Run(fmt.Sprintf("grid-2x%d-bipartite", cols), func(t *testing.T) {
			if cols > 3 && testing.Short() {
				t.Skip("2x4 takes about 0.1 s on the reference engine")
			}
			p := graph.New(2 * cols)
			for i := 0; i < cols; i++ {
				for j := cols; j < 2*cols; j++ {
					p.AddEdge(i, j)
				}
			}
			d := assertEngineAgreement(t, arch.Grid(2, cols), p, nil)
			t.Logf("bipartite on grid-2x%d: optimal depth %d", cols, d)
		})
	}
	t.Run("mumbai-path4", func(t *testing.T) {
		// families_test routes Path(3) on Mumbai; one logical more here.
		p := graph.Path(4)
		d := assertEngineAgreement(t, arch.Mumbai(), p, []int{0, 1, 4, 7})
		if d > 3 {
			t.Fatalf("Path(4) on coupled Mumbai qubits: depth %d", d)
		}
	})
}
