package noise

import (
	"math"
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
