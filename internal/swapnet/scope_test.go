package swapnet

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestNewScopeMatchesPairScan checks the row-intersecting scope against a
// scan of every pair of region logicals, on problems narrower and wider
// than one 64-bit word, with regions given as overlapping lists.
func TestNewScopeMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a := arch.Line(2 + rng.Intn(150))
		n := 2 + rng.Intn(a.N()-1)
		st := NewState(a, n, randomMapping(rng, n, a.N()), graph.Gnp(n, rng.Float64(), rng))
		// Two scopes per State: the second must not see the first's marks.
		for pass := 0; pass < 2; pass++ {
			lists := make([][]int, 1+rng.Intn(3))
			for i := range lists {
				lists[i] = rng.Perm(a.N())[:rng.Intn(a.N()+1)]
			}
			in := make([]bool, n)
			for _, ps := range lists {
				for _, p := range ps {
					if l := st.P2L[p]; l >= 0 {
						in[l] = true
					}
				}
			}
			var want []graph.Edge
			for _, e := range st.Want.Edges() {
				if in[e.U] && in[e.V] {
					want = append(want, e)
				}
			}
			got := newScope(st, lists...).rel.Edges()
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d pass %d (n=%d): scope %v, pair scan %v", trial, pass, n, got, want)
			}
		}
	}
}
