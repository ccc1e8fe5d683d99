package core

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

func testArchs() []*arch.Arch {
	return []*arch.Arch{
		arch.Line(12),
		arch.Grid(4, 4),
		arch.Sycamore(4, 4),
		arch.Hexagon(4, 4),
		arch.HeavyHex(2, 8),
	}
}

func TestCompileModesAllArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, a := range testArchs() {
		n := a.N()
		if n > 14 {
			n = 14
		}
		p := graph.GnpConnected(n, 0.4, rng)
		for _, mode := range []Mode{ModeGreedy, ModeATA, ModeHybrid} {
			res, err := Compile(a, p, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, mode, err)
			}
			if res.Metrics.ProgramGates != p.M() {
				t.Fatalf("%s/%s: %d program gates, want %d", a.Name, mode, res.Metrics.ProgramGates, p.M())
			}
			if res.Metrics.Depth <= 0 || res.Metrics.CXCount < 2*p.M() {
				t.Fatalf("%s/%s: degenerate metrics %+v", a.Name, mode, res.Metrics)
			}
		}
	}
}

func TestCompileCliques(t *testing.T) {
	for _, a := range []*arch.Arch{arch.Grid(4, 4), arch.Sycamore(4, 4), arch.HeavyHex(2, 8)} {
		p := graph.Complete(a.N())
		res, err := Compile(a, p, Options{Mode: ModeHybrid})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Metrics.ProgramGates != p.M() {
			t.Fatalf("%s: missing gates", a.Name)
		}
	}
}

// TestHybridNeverWorseThanATA is Theorem 6.1: the hybrid selector always
// has the pure ATA circuit as a candidate, so its selected cost is at most
// the ATA cost.
func TestHybridNeverWorseThanATA(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, a := range []*arch.Arch{arch.Grid(5, 5), arch.Sycamore(4, 4), arch.HeavyHex(2, 8)} {
		for _, density := range []float64{0.1, 0.3, 0.7} {
			p := graph.GnpConnected(a.N(), density, rng)
			hy, err := Compile(a, p, Options{Mode: ModeHybrid})
			if err != nil {
				t.Fatal(err)
			}
			ata, err := Compile(a, p, Options{Mode: ModeATA})
			if err != nil {
				t.Fatal(err)
			}
			// The selector optimises F over (cycles, CX); compare on CX
			// with generous slack for the depth-vs-CX tradeoff.
			if hy.Metrics.CXCount > ata.Metrics.CXCount+ata.Metrics.CXCount/4 {
				t.Errorf("%s d=%.1f: hybrid CX %d far above ATA CX %d (source %s)",
					a.Name, density, hy.Metrics.CXCount, ata.Metrics.CXCount, hy.Source)
			}
		}
	}
}

func TestHybridBeatsGreedyOnDenseProblems(t *testing.T) {
	// On dense inputs the structured solution wins (Fig 17); the hybrid
	// must pick it up.
	rng := rand.New(rand.NewSource(31))
	a := arch.Grid(5, 5)
	p := graph.GnpConnected(25, 0.8, rng)
	hy, err := Compile(a, p, Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Compile(a, p, Options{Mode: ModeGreedy})
	if err != nil {
		t.Fatal(err)
	}
	// The selector optimises F = alpha*depth + (1-alpha)*gates; on dense
	// inputs the structured solution's depth advantage must carry through.
	if hy.Metrics.Depth > gr.Metrics.Depth {
		t.Errorf("hybrid depth %d worse than greedy depth %d on dense input (source %s)",
			hy.Metrics.Depth, gr.Metrics.Depth, hy.Source)
	}
}

func TestGreedyWinsOnTinySparseProblems(t *testing.T) {
	// A problem that is already hardware-compliant: greedy schedules it
	// with zero swaps, and the hybrid must not regress to the full pattern.
	a := arch.Grid(4, 4)
	p := graph.New(16)
	p.AddEdge(0, 1)
	p.AddEdge(2, 3)
	res, err := Compile(a, p, Options{Mode: ModeHybrid, InitialMapping: identity(16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Swaps != 0 {
		t.Fatalf("trivial problem compiled with %d swaps (source %s)", res.Metrics.Swaps, res.Source)
	}
	if res.Metrics.TwoQubitDepth != 1 {
		t.Fatalf("trivial problem depth %d", res.Metrics.TwoQubitDepth)
	}
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestNoiseAwareCompile(t *testing.T) {
	a := arch.Mumbai()
	nm := noise.Synthetic(a, 3)
	rng := rand.New(rand.NewSource(5))
	p := graph.GnpConnected(10, 0.3, rng)
	res, err := Compile(a, p, Options{Mode: ModeHybrid, Noise: nm, CrosstalkAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.LogFidelity >= 0 {
		t.Fatalf("log fidelity %v not negative under noise", res.Metrics.LogFidelity)
	}
}

func TestGenericArchRequiresGreedy(t *testing.T) {
	g := graph.Cycle(8)
	a := arch.Generic("ring-8", g)
	p := graph.Path(8)
	if _, err := Compile(a, p, Options{Mode: ModeHybrid}); err == nil {
		t.Fatal("hybrid accepted a generic architecture")
	}
	if _, err := Compile(a, p, Options{Mode: ModeGreedy}); err != nil {
		t.Fatalf("greedy on generic arch: %v", err)
	}
}

func TestRegionDetectionSeparatesComponents(t *testing.T) {
	a := arch.Grid(6, 6)
	// Two disjoint triangles placed in opposite corners.
	p := graph.New(6)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	p.AddEdge(0, 2)
	p.AddEdge(3, 4)
	p.AddEdge(4, 5)
	p.AddEdge(3, 5)
	mapping := []int{0, 1, 6, 28, 29, 34} // corner (0,0)-ish and (4,4)-ish
	st := swapnet.NewStateFromMapping(a, mapping, swapnet.NewEdgeSet(p))
	regions := detectRegions(st, new(regionBuf))
	if len(regions) != 2 {
		t.Fatalf("expected 2 regions, got %d: %+v", len(regions), regions)
	}
}

func TestRegionDetectionMergesOverlaps(t *testing.T) {
	a := arch.Grid(6, 6)
	p := graph.New(6)
	p.AddEdge(0, 1)
	p.AddEdge(2, 3)
	p.AddEdge(4, 5)
	// Three pairs stacked in the same columns: overlapping rectangles.
	mapping := []int{0, 7, 1, 8, 2, 9}
	st := swapnet.NewStateFromMapping(a, mapping, swapnet.NewEdgeSet(p))
	regions := detectRegions(st, new(regionBuf))
	if len(regions) != 1 {
		t.Fatalf("expected 1 merged region, got %d", len(regions))
	}
}
