// Package noise models hardware error variability (§5.3): per-coupling
// two-qubit gate error rates, per-qubit single-qubit and readout errors, an
// idle (decoherence) rate per cycle, and crosstalk between close parallel
// couplings. The hybrid compiler consumes the model for noise-aware SWAP
// placement and fidelity estimation; the trajectory simulator consumes it
// for end-to-end experiments.
//
// Substitution note (DESIGN.md): the paper reads these numbers from IBM
// calibration data; Synthetic generates a seeded calibration with realistic
// magnitudes and log-normal spread so that the compiler faces the same kind
// of variability.
package noise

import (
	"math"
	"math/rand"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// Model is a calibration snapshot for one architecture.
type Model struct {
	// TwoQubit maps each coupling to its CX error rate.
	TwoQubit map[graph.Edge]float64
	// SingleQubit and Readout are per-physical-qubit error rates.
	SingleQubit []float64
	Readout     []float64
	// IdlePerCycle is the per-qubit decoherence probability per circuit
	// cycle (a T1/T2 proxy tied to circuit duration).
	IdlePerCycle float64
	// CrosstalkFactor scales a gate's error when a crosstalk-coupled gate
	// runs in the same cycle.
	CrosstalkFactor float64
}

// Ideal returns a zero-noise model for a.
func Ideal(a *arch.Arch) *Model {
	m := &Model{
		TwoQubit:        make(map[graph.Edge]float64, a.G.M()),
		SingleQubit:     make([]float64, a.N()),
		Readout:         make([]float64, a.N()),
		CrosstalkFactor: 1,
	}
	for _, e := range a.G.Edges() {
		m.TwoQubit[e] = 0
	}
	return m
}

// Uniform returns a model with identical rates everywhere.
func Uniform(a *arch.Arch, cx, oneQ, readout, idle float64) *Model {
	m := Ideal(a)
	for _, e := range a.G.Edges() {
		m.TwoQubit[e] = cx
	}
	for q := 0; q < a.N(); q++ {
		m.SingleQubit[q] = oneQ
		m.Readout[q] = readout
	}
	m.IdlePerCycle = idle
	m.CrosstalkFactor = 1.5
	return m
}

// Synthetic returns a seeded calibration with IBM-Falcon-like magnitudes:
// CX errors log-normal around 1e-2, single-qubit around 3e-4, readout
// around 2.5e-2, with heavy-tailed outliers (a few bad links), which is
// what makes noise-aware placement matter.
func Synthetic(a *arch.Arch, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := Ideal(a)
	logn := func(median, sigma float64) float64 {
		return median * math.Exp(rng.NormFloat64()*sigma)
	}
	for _, e := range a.G.Edges() {
		v := logn(1e-2, 0.45)
		if rng.Float64() < 0.05 {
			v *= 3 + 4*rng.Float64() // occasional bad link
		}
		if v > 0.25 {
			v = 0.25
		}
		m.TwoQubit[e] = v
	}
	for q := 0; q < a.N(); q++ {
		m.SingleQubit[q] = logn(3e-4, 0.4)
		m.Readout[q] = logn(2.5e-2, 0.5)
	}
	m.IdlePerCycle = 8e-4
	m.CrosstalkFactor = 1.5
	return m
}

// EdgeError returns the CX error rate of coupling (p, q).
func (m *Model) EdgeError(p, q int) float64 {
	return m.TwoQubit[graph.NewEdge(p, q)]
}

// CrosstalkPairs returns the pairs of couplings the scheduler must avoid
// running in parallel: disjoint couplings joined by a third coupling ("two
// close and parallel CNOT gates", §5.3).
func CrosstalkPairs(a *arch.Arch) [][2]graph.Edge {
	edges := a.G.Edges()
	var out [][2]graph.Edge
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			e, f := edges[i], edges[j]
			if e.U == f.U || e.U == f.V || e.V == f.U || e.V == f.V {
				continue // sharing a qubit is a scheduling conflict already
			}
			if a.G.HasEdge(e.U, f.U) || a.G.HasEdge(e.U, f.V) ||
				a.G.HasEdge(e.V, f.U) || a.G.HasEdge(e.V, f.V) {
				out = append(out, [2]graph.Edge{e, f})
			}
		}
	}
	return out
}

// LogFidelity estimates log of the circuit's success probability: the sum
// of log(1-e) over all decomposed gates plus a decoherence term for the
// circuit duration. Larger (closer to zero) is better.
func (m *Model) LogFidelity(c *circuit.Circuit) float64 {
	return m.LogFidelityAt(c, c.DecomposedDepth())
}

// LogFidelityAt is LogFidelity for a circuit whose decomposed depth is
// already known and whose gates are valid (as DecomposedDepth checks). It
// adds the same terms in the same order, expanding each gate into a stack
// buffer (see circuit.Gate.Expand) instead of streaming through a callback.
func (m *Model) LogFidelityAt(c *circuit.Circuit, depth int) float64 {
	lf := 0.0
	var buf [4]circuit.Gate
	for _, g := range c.Gates {
		for _, e := range g.Expand(&buf) {
			if e.Kind == circuit.GateCNOT {
				lf += math.Log1p(-m.EdgeError(e.Q0, e.Q1))
			} else {
				lf += math.Log1p(-m.SingleQubit[e.Q0])
			}
		}
	}
	lf += -m.IdlePerCycle * float64(depth) * float64(activeQubits(c))
	return lf
}

// Fidelity is exp(LogFidelity), the estimated success probability (ESP).
func (m *Model) Fidelity(c *circuit.Circuit) float64 {
	return math.Exp(m.LogFidelity(c))
}

func activeQubits(c *circuit.Circuit) int {
	seen := make([]bool, c.NQubits)
	n := 0
	mark := func(q int) {
		if !seen[q] {
			seen[q] = true
			n++
		}
	}
	for _, g := range c.Gates {
		mark(g.Q0)
		if g.Kind.TwoQubit() {
			mark(g.Q1)
		}
	}
	return n
}
