package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// referenceMeasure is Measure as separate passes: the streamed decomposed
// depth, TwoQubitDepth, CXCount, the map-based GateCount, and a
// log-fidelity that walks the decomposed stream term by term.
func referenceMeasure(c *circuit.Circuit, nm *noise.Model) Metrics {
	counts := c.GateCount()
	m := Metrics{
		Depth:         c.DecomposedDepth(),
		TwoQubitDepth: c.TwoQubitDepth(),
		CXCount:       c.CXCount(),
		ProgramGates:  counts[circuit.GateZZ] + counts[circuit.GateZZSwap],
		Swaps:         counts[circuit.GateSwap] + counts[circuit.GateZZSwap],
	}
	if nm == nil {
		return m
	}
	lf := 0.0
	c.Decomposed(func(g circuit.Gate) bool {
		if g.Kind == circuit.GateCNOT {
			lf += math.Log1p(-nm.EdgeError(g.Q0, g.Q1))
		} else {
			lf += math.Log1p(-nm.SingleQubit[g.Q0])
		}
		return true
	})
	active := make(map[int]bool)
	for _, g := range c.Gates {
		active[g.Q0] = true
		if g.Kind.TwoQubit() {
			active[g.Q1] = true
		}
	}
	m.LogFidelity = lf - nm.IdlePerCycle*float64(c.DecomposedDepth())*float64(len(active))
	return m
}

func assertSameMetrics(t *testing.T, name string, got, want Metrics) {
	t.Helper()
	if got.Depth != want.Depth || got.TwoQubitDepth != want.TwoQubitDepth || got.CXCount != want.CXCount ||
		got.ProgramGates != want.ProgramGates || got.Swaps != want.Swaps ||
		math.Float64bits(got.LogFidelity) != math.Float64bits(want.LogFidelity) {
		t.Fatalf("%s: Measure = %+v, reference %+v", name, got, want)
	}
}

// randomCircuit draws gates of every kind; two-qubit gates mostly land on
// couplings of a, so the noise model's edge rates are exercised.
func randomCircuit(a *arch.Arch, gates int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(a.N())
	edges := a.G.Edges()
	for i := 0; i < gates; i++ {
		k := circuit.Kind(rng.Intn(int(circuit.GateZZSwap) + 1))
		g := circuit.Gate{Kind: k, Q0: rng.Intn(a.N()), Q1: -1, Angle: rng.Float64()}
		if k.TwoQubit() {
			e := edges[rng.Intn(len(edges))]
			g.Q0, g.Q1 = e.U, e.V
			if rng.Intn(2) == 0 {
				g.Q0, g.Q1 = e.V, e.U
			}
			if rng.Intn(8) == 0 {
				g.Q1 = (g.Q0 + 1 + rng.Intn(a.N()-1)) % a.N()
			}
		}
		c.Append(g)
	}
	return c
}

// TestMeasureMatchesSeparatePasses: the one-pass Measure equals the
// separate streamed passes on random circuits of every gate kind, bit for
// bit in log-fidelity, with and without a noise model.
func TestMeasureMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range []*arch.Arch{arch.Line(5), arch.GridN(16), arch.HeavyHexN(27)} {
		models := []*noise.Model{nil, noise.Synthetic(a, 3), noise.Uniform(a, 1e-2, 1e-4, 1e-2, 1e-5)}
		for trial := 0; trial < 40; trial++ {
			c := randomCircuit(a, rng.Intn(200), rng)
			for i, nm := range models {
				name := fmt.Sprintf("%s/trial-%d/model-%d", a.Name, trial, i)
				assertSameMetrics(t, name, Measure(c, nm), referenceMeasure(c, nm))
			}
		}
	}
}

// TestMeasureMatchesOnCompiledMatrix runs the 105-instance cached
// differential matrix through both Measure and the separate passes, with
// each instance's own options (a noisy model on about half of them).
func TestMeasureMatchesOnCompiledMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential matrix is not -short material")
	}
	n := 0
	for _, a := range cachedDiffArchs() {
		for _, fam := range []string{"er-0.2", "er-0.5", "er-0.8", "regular-3", "lattice"} {
			for seed := int64(1); seed <= 7; seed++ {
				opts := cachedDiffOptions(a, seed)
				res, err := CompileContext(context.Background(), a, cachedDiffProblem(fam, a, seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%d", a.Name, fam, seed)
				want := referenceMeasure(res.Circuit, opts.Noise)
				assertSameMetrics(t, name, Measure(res.Circuit, opts.Noise), want)
				assertSameMetrics(t, name+"/result", res.Metrics, want)
				nm := noise.Synthetic(a, seed)
				assertSameMetrics(t, name+"/synthetic", Measure(res.Circuit, nm), referenceMeasure(res.Circuit, nm))
				n++
			}
		}
	}
	if n != 105 {
		t.Fatalf("matrix held %d instances, want 105", n)
	}
}
