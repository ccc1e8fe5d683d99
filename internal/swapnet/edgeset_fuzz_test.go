package swapnet

import (
	"slices"
	"testing"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// FuzzEdgeSetMatchesMap drives the dense-bitset EdgeSet and a map oracle
// through the same operations and requires identical answers. The input
// bytes pick the qubit count, the initial edges (byte pairs) and a program
// of Has/Remove/Clone/Edges operations whose operands range over
// [-2, n+2), so reversed, self-loop and out-of-range edges are probed too.
func FuzzEdgeSetMatchesMap(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 4}, []byte{0, 2, 3, 1, 2, 3, 1, 2, 3, 0, 4, 0, 2, 0, 0, 3, 0, 0, 1, 9, 9})
	f.Add(uint8(1), []byte{}, []byte{0, 0, 0, 1, 1, 1})
	f.Add(uint8(12), []byte{0, 11, 11, 0, 5, 5, 3, 7, 7, 3}, []byte{1, 13, 2, 0, 4, 2, 2, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, edges, ops []byte) {
		nq := int(n%24) + 1
		g := graph.New(nq)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(int(edges[i])%nq, int(edges[i+1])%nq)
		}
		s := NewEdgeSet(g)
		oracle := map[graph.Edge]struct{}{}
		for _, e := range g.Edges() {
			oracle[e] = struct{}{}
		}
		check := func(s *EdgeSet, oracle map[graph.Edge]struct{}) {
			t.Helper()
			if s.Len() != len(oracle) || s.Empty() != (len(oracle) == 0) {
				t.Fatalf("Len %d Empty %v, oracle has %d", s.Len(), s.Empty(), len(oracle))
			}
			got := s.Edges()
			if !slices.IsSortedFunc(got, cmpEdge) {
				t.Fatalf("Edges not ascending: %v", got)
			}
			want := make([]graph.Edge, 0, len(oracle))
			for e := range oracle {
				want = append(want, e)
			}
			slices.SortFunc(want, cmpEdge)
			if !slices.Equal(got, want) {
				t.Fatalf("Edges %v, oracle %v", got, want)
			}
		}
		operand := func(b byte) int { return int(b)%(nq+4) - 2 }
		for i := 0; i+2 < len(ops); i += 3 {
			// Raw (not canonicalised) edges: U > V and U == V included.
			e := graph.Edge{U: operand(ops[i+1]), V: operand(ops[i+2])}
			_, inOracle := oracle[e]
			switch ops[i] % 4 {
			case 0:
				if s.Has(e) != inOracle {
					t.Fatalf("Has(%v) = %v, oracle %v", e, s.Has(e), inOracle)
				}
			case 1:
				if s.Remove(e) != inOracle {
					t.Fatalf("Remove(%v) disagrees with oracle (%v)", e, inOracle)
				}
				delete(oracle, e)
			case 2:
				// A clone must be independent in both directions.
				c := s.Clone()
				co := map[graph.Edge]struct{}{}
				for k := range oracle {
					co[k] = struct{}{}
				}
				c.Remove(e)
				delete(co, e)
				check(c, co)
				check(s, oracle)
				s.Remove(graph.NewEdge(operand(ops[i+2]), operand(ops[i+1])))
				delete(oracle, graph.NewEdge(operand(ops[i+2]), operand(ops[i+1])))
				check(c, co)
			case 3:
				check(s, oracle)
			}
		}
		check(s, oracle)
	})
}

func cmpEdge(a, b graph.Edge) int {
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
}
