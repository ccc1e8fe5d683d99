package noise

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
)

func TestIdealModelZeroError(t *testing.T) {
	a := arch.Line(4)
	m := Ideal(a)
	if m.EdgeError(1, 2) != 0 {
		t.Fatal("ideal edge error nonzero")
	}
	c := circuit.New(4)
	c.Append(circuit.NewSwap(0, 1), circuit.NewZZ(1, 2, 0.3, graph.NewEdge(1, 2)))
	if f := m.Fidelity(c); f != 1 {
		t.Fatalf("ideal fidelity %v", f)
	}
}

func TestUniformModel(t *testing.T) {
	a := arch.Line(3)
	m := Uniform(a, 0.01, 1e-4, 0.02, 1e-3)
	if m.EdgeError(0, 1) != 0.01 || m.EdgeError(1, 2) != 0.01 {
		t.Fatal("uniform CX error wrong")
	}
	if m.Readout[2] != 0.02 {
		t.Fatal("readout wrong")
	}
}

func TestSyntheticVariabilityAndDeterminism(t *testing.T) {
	a := arch.Mumbai()
	m1 := Synthetic(a, 7)
	m2 := Synthetic(a, 7)
	m3 := Synthetic(a, 8)
	varied := false
	different := false
	var prev float64 = -1
	for _, e := range a.G.Edges() {
		v := m1.TwoQubit[e]
		if v <= 0 || v > 0.3 {
			t.Fatalf("edge %v error %v out of range", e, v)
		}
		if v != m2.TwoQubit[e] {
			t.Fatal("same seed produced different calibration")
		}
		if v != m3.TwoQubit[e] {
			different = true
		}
		if prev >= 0 && v != prev {
			varied = true
		}
		prev = v
	}
	if !varied {
		t.Fatal("no variability across edges")
	}
	if !different {
		t.Fatal("different seeds produced identical calibration")
	}
}

func TestFidelityDecreasesWithGates(t *testing.T) {
	a := arch.Line(4)
	m := Uniform(a, 0.01, 1e-4, 0.02, 1e-3)
	c1 := circuit.New(4)
	c1.Append(circuit.NewSwap(0, 1))
	c2 := circuit.New(4)
	c2.Append(circuit.NewSwap(0, 1), circuit.NewSwap(2, 3), circuit.NewSwap(1, 2))
	f1, f2 := m.Fidelity(c1), m.Fidelity(c2)
	if !(0 < f2 && f2 < f1 && f1 < 1) {
		t.Fatalf("fidelity ordering wrong: %v vs %v", f1, f2)
	}
	if math.Abs(m.LogFidelity(c1)-math.Log(f1)) > 1e-12 {
		t.Fatal("LogFidelity inconsistent with Fidelity")
	}
}

func TestCrosstalkPairs(t *testing.T) {
	// On a line 0-1-2-3: couplings (0,1) and (2,3) are disjoint and joined
	// by (1,2) -> crosstalk pair. On line of 5: (0,1),(3,4) are not.
	a := arch.Line(5)
	pairs := CrosstalkPairs(a)
	has := func(e1, e2 graph.Edge) bool {
		for _, p := range pairs {
			if (p[0] == e1 && p[1] == e2) || (p[0] == e2 && p[1] == e1) {
				return true
			}
		}
		return false
	}
	if !has(graph.NewEdge(0, 1), graph.NewEdge(2, 3)) {
		t.Fatal("adjacent parallel couplings missing")
	}
	if has(graph.NewEdge(0, 1), graph.NewEdge(3, 4)) {
		t.Fatal("distant couplings flagged")
	}
	if has(graph.NewEdge(0, 1), graph.NewEdge(1, 2)) {
		t.Fatal("qubit-sharing couplings flagged as crosstalk")
	}
}

func TestFidelityPrefersGoodLinks(t *testing.T) {
	a := arch.Line(3)
	m := Ideal(a)
	m.TwoQubit[graph.NewEdge(0, 1)] = 0.10
	m.TwoQubit[graph.NewEdge(1, 2)] = 0.01
	good := circuit.New(3)
	good.Append(circuit.NewSwap(1, 2))
	bad := circuit.New(3)
	bad.Append(circuit.NewSwap(0, 1))
	if m.Fidelity(good) <= m.Fidelity(bad) {
		t.Fatal("fidelity does not prefer the better link")
	}
}

// TestLogFidelityMatchesMaterialised: streaming the decomposition gives
// bit-for-bit the estimate computed over the materialised circuit (same
// summation order, same depth term).
func TestLogFidelityMatchesMaterialised(t *testing.T) {
	a := arch.Grid(3, 3)
	m := Synthetic(a, 5)
	c := circuit.New(a.N())
	c.Append(
		circuit.Gate{Kind: circuit.GateH, Q0: 4, Q1: -1},
		circuit.NewZZ(0, 1, 0.3, graph.NewEdge(0, 1)),
		circuit.NewSwap(1, 4),
		circuit.Gate{Kind: circuit.GateZZSwap, Q0: 4, Q1: 5, Angle: 0.9},
		circuit.Gate{Kind: circuit.GateRX, Q0: 8, Q1: -1, Angle: 0.2},
		circuit.NewZZ(3, 4, -0.4, graph.NewEdge(3, 4)),
	)
	d := c.Decompose()
	want := 0.0
	for _, g := range d.Gates {
		if g.Kind == circuit.GateCNOT {
			want += math.Log1p(-m.EdgeError(g.Q0, g.Q1))
		} else {
			want += math.Log1p(-m.SingleQubit[g.Q0])
		}
	}
	want += -m.IdlePerCycle * float64(d.Depth()) * float64(activeQubits(c))
	if got := m.LogFidelity(c); got != want {
		t.Fatalf("LogFidelity %v, materialised %v", got, want)
	}
}

// mapLogFidelity is the LogFidelityAt the per-call coupler table
// replaced, kept as the oracle: one map lookup and one log1p per
// expanded gate.
func mapLogFidelity(m *Model, c *circuit.Circuit, depth int) float64 {
	lf := 0.0
	c.Decomposed(func(e circuit.Gate) bool {
		if e.Kind == circuit.GateCNOT {
			lf += math.Log1p(-m.EdgeError(e.Q0, e.Q1))
		} else {
			lf += math.Log1p(-m.SingleQubit[e.Q0])
		}
		return true
	})
	return lf - m.IdlePerCycle*float64(depth)*float64(activeQubits(c))
}

// TestLogFidelityTableMatchesMap: the table-based LogFidelityAt is
// bit-equal to the map-plus-log1p oracle on random circuits whose
// two-qubit gates also land on uncoupled pairs, under a full synthetic
// model and under one whose map lacks some couplers and holds entries
// no lookup reads: pairs outside the circuit, negative, reversed and
// self-loop keys, and an error rate of 1.
func TestLogFidelityTableMatchesMap(t *testing.T) {
	a := arch.Grid(4, 4)
	sparse := Synthetic(a, 12)
	for i, e := range a.G.Edges() {
		if i%3 == 0 {
			delete(sparse.TwoQubit, e)
		}
	}
	for _, e := range []graph.Edge{{U: 3, V: 40}, {U: -1, V: 2}, {U: 9, V: 5}, {U: 7, V: 7}, {U: 16, V: 17}} {
		sparse.TwoQubit[e] = 0.5
	}
	sparse.TwoQubit[graph.NewEdge(0, 5)] = 1
	rng := rand.New(rand.NewSource(3))
	for mi, m := range []*Model{Synthetic(a, 11), sparse} {
		for trial := 0; trial < 60; trial++ {
			c := circuit.New(a.N())
			for i := rng.Intn(150); i > 0; i-- {
				k := circuit.Kind(rng.Intn(int(circuit.GateZZSwap) + 1))
				g := circuit.Gate{Kind: k, Q0: rng.Intn(a.N()), Q1: -1, Angle: rng.Float64()}
				if k.TwoQubit() {
					g.Q1 = (g.Q0 + 1 + rng.Intn(a.N()-1)) % a.N()
				}
				c.Append(g)
			}
			depth := c.DecomposedDepth()
			got, want := m.LogFidelityAt(c, depth), mapLogFidelity(m, c, depth)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("model %d trial %d: LogFidelityAt %v, map oracle %v", mi, trial, got, want)
			}
		}
	}
}

// TestLogFidelityRejectsInvalidGate: LogFidelityAt checks each source
// gate's operands and refuses an invalid one with Append's message.
func TestLogFidelityRejectsInvalidGate(t *testing.T) {
	m := Uniform(arch.Line(6), 1e-2, 1e-4, 1e-2, 1e-5)
	c := &circuit.Circuit{NQubits: 2, Gates: []circuit.Gate{circuit.NewSwap(0, 1), circuit.NewZZ(0, 5, 0.3, graph.NewEdge(0, 1))}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "circuit: invalid 2q gate cx on (0,5)") {
			t.Fatalf("out-of-range gate: recovered %v, want Append's panic", r)
		}
	}()
	m.LogFidelityAt(c, 6)
}
