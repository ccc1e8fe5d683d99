package solver

import (
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestLineCliqueOptimalDepths locks in the optimal depths the solver
// discovers for small line cliques: 2n-2 cycles (n gate layers + n-2 SWAP
// layers), the structure §3.1 generalises into the linear pattern. Up to
// n=6 the reference engine must prove the same depth as both packed
// engines; n=7 (about 30 s on the reference) runs the packed engines
// alone, outside -short mode.
func TestLineCliqueOptimalDepths(t *testing.T) {
	want := []int{2: 1, 3: 4, 4: 6, 5: 8, 6: 10, 7: 12}
	for n := 2; n < len(want); n++ {
		a, p := arch.Line(n), graph.Complete(n)
		var got int
		switch {
		case n <= 6:
			got = assertEngineAgreement(t, a, p, nil)
		case testing.Short():
			continue
		default:
			got = assertPackedAgreement(t, a, p, nil)
		}
		if got != want[n] {
			t.Errorf("K%d on line-%d: optimal depth %d, want %d", n, n, got, want[n])
		}
	}
}

// TestBipartiteLadderOptimal locks the 2xUnit sub-problem optimum for 2x2:
// the Fig 8/9 counter-rotation covers the 4 cross pairs in 2 compute layers
// + 1 swap layer.
func TestBipartiteLadderOptimal(t *testing.T) {
	a := arch.Grid(2, 2)
	p := graph.New(4)
	p.AddEdge(0, 2)
	p.AddEdge(0, 3)
	p.AddEdge(1, 2)
	p.AddEdge(1, 3)
	res, err := Solve(a, p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 3 {
		t.Fatalf("bipartite 2x2: depth %d, want 3", res.Depth)
	}
}
