package greedy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// refineArchs spans every architecture family, plus a generic device whose
// coupling graph is disconnected (unreachable pairs have distance -1).
func refineArchs() []*arch.Arch {
	split := graph.New(12)
	for v := 0; v+1 < 6; v++ {
		split.AddEdge(v, v+1)
		split.AddEdge(6+v, 6+v+1)
	}
	return []*arch.Arch{
		arch.Line(10),
		arch.Grid(4, 5),
		arch.GridN(36),
		arch.Lattice3D(3, 3, 2),
		arch.HeavyHexN(27),
		arch.HexagonN(24),
		arch.SycamoreN(25),
		arch.Mumbai(),
		arch.Generic("ring", graph.Cycle(9)),
		arch.Generic("split", split),
	}
}

// TestRefinePlacementMatchesReference requires the incremental-cost
// hill-climb to return exactly the rescanning oracle's placement, from both
// the compact seed and a random scatter, on full-size and partial problems,
// edgeless and complete graphs, at 0, 1 and 6 passes.
func TestRefinePlacementMatchesReference(t *testing.T) {
	densities := []float64{0.02, 0.1, 0.3, 0.6, 0.9}
	cases := 0
	for ai, a := range refineArchs() {
		rng := rand.New(rand.NewSource(int64(100 + ai)))
		sizes := []int{a.N(), (a.N() + 1) / 2, 2}
		for _, n := range sizes {
			problems := []struct {
				name string
				g    *graph.Graph
			}{
				{"edgeless", graph.New(n)},
				{"complete", graph.Complete(n)},
			}
			for _, d := range densities {
				problems = append(problems, struct {
					name string
					g    *graph.Graph
				}{fmt.Sprintf("er-%g", d), graph.Gnp(n, d, rng)})
			}
			for _, pc := range problems {
				seeds := [][]int{InitialMapping(a, pc.g), rng.Perm(a.N())[:n]}
				for si, initial := range seeds {
					for _, passes := range []int{0, 1, 6} {
						want := referenceRefinePlacement(a, pc.g, initial, passes)
						got := RefinePlacement(a, pc.g, initial, passes)
						if !slices.Equal(got, want) {
							t.Fatalf("%s n=%d %s seed=%d passes=%d:\n got  %v\n want %v",
								a.Name, n, pc.name, si, passes, got, want)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d differential cases", cases)
}

// TestRefinePlacementLeavesInitialIntact: the caller's placement is an
// input, never scratch.
func TestRefinePlacementLeavesInitialIntact(t *testing.T) {
	a := arch.GridN(36)
	p := graph.GnpConnected(30, 0.2, rand.New(rand.NewSource(3)))
	initial := rand.New(rand.NewSource(4)).Perm(a.N())[:p.N()]
	keep := slices.Clone(initial)
	got := RefinePlacement(a, p, initial, 6)
	if !slices.Equal(initial, keep) {
		t.Fatal("RefinePlacement mutated its initial placement")
	}
	if slices.Equal(got, initial) {
		t.Fatal("a random scatter should have been improved")
	}
	got[0] = -1
	if initial[0] == -1 {
		t.Fatal("result aliases the initial placement")
	}
}

// FuzzRefineMatchesReference decodes arbitrary bytes into a (device,
// problem, placement, passes) instance and requires the incremental
// hill-climb to match the rescanning oracle. Registered in the CI fuzz
// smoke job next to FuzzGreedyMatchesReference.
func FuzzRefineMatchesReference(f *testing.F) {
	f.Add([]byte{0, 8, 128, 0, 42})
	f.Add([]byte{1, 12, 20, 1, 7})
	f.Add([]byte{2, 30, 250, 6, 99})
	f.Add([]byte{3, 16, 0, 3, 3, 1, 4, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		archs := refineArchs()
		a := archs[int(data[0])%len(archs)]
		n := 1 + int(data[1])%a.N()
		density := float64(data[2]) / 255.0
		passes := int(data[3]) % 7
		seed := int64(data[4])
		for _, b := range data[5:] {
			seed = seed*257 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		p := graph.Gnp(n, density, rng)
		initial := InitialMapping(a, p)
		if seed&1 != 0 {
			initial = rng.Perm(a.N())[:n]
		}
		want := referenceRefinePlacement(a, p, initial, passes)
		if got := RefinePlacement(a, p, initial, passes); !slices.Equal(got, want) {
			t.Fatalf("%s n=%d passes=%d:\n got  %v\n want %v", a.Name, n, passes, got, want)
		}
	})
}

// refineSink keeps the benchmarked call from being optimised away.
var refineSink []int

// BenchmarkRefinePlacement times the hill-climb from the compact seed at
// the pass count core gives each greedy-large benchmark shape (problem
// size, device, density).
func BenchmarkRefinePlacement(b *testing.B) {
	shapes := []struct {
		name    string
		n       int
		a       *arch.Arch
		density float64
	}{
		{"grid-144/er-0.2", 144, arch.GridN(144), 0.2},
		{"sycamore-196/er-0.05", 196, arch.SycamoreN(196), 0.05},
		{"heavy-hex-256/er-0.03", 256, arch.HeavyHexN(256), 0.03},
		{"hexagon-128/er-0.1", 128, arch.HexagonN(128), 0.1},
	}
	for _, s := range shapes {
		p := graph.GnpConnected(s.n, s.density, rand.New(rand.NewSource(1)))
		initial := InitialMapping(s.a, p)
		passes := min(max(2048/(s.n+1), 1), 6)
		s.a.Distances()
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refineSink = RefinePlacement(s.a, p, initial, passes)
			}
		})
	}
}
