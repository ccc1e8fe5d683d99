package verify

import (
	"fmt"
	"math"

	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/verify/sema"
)

// Sema proves the circuit's semantics, not just its structure: symbolic
// execution over a parity frame (internal/verify/sema) extracts the
// diagonal phase polynomial the circuit implements — conjugating every
// physical ZZ(θ) back to a logical edge term through the SWAP-tracked
// frame — and compares it, term by term, against the polynomial read off
// the problem graph. Equality up to final qubit permutation and term
// reordering is exactly the paper's correctness notion (Theorem 6.1):
// routing may permute freely, the implemented Hamiltonian may not change.
// Unlike the state-vector oracle (internal/sim, ~20-qubit ceiling) this
// runs in O(gates) and scales to every instance the compiler targets.
var Sema = &Analyzer{
	Name:     "sema",
	Severity: SeverityError,
	Doc: `The phase polynomial extracted by symbolically executing the
circuit (parity-frame tracking through SWAPs, ZZ/RZ terms conjugated to
logical variables) must equal the problem graph's polynomial: every
interaction term realized with the program angle, no spurious terms, no
phase on unmapped qubits, no uncompensated CNOT ladders, and H/RX confined
to state-prep and mixer layers. Pass.Angle pins the expected program
angle; when zero, all terms must agree on one shared non-zero angle.`,
	Requires: func(p *Pass) string {
		if p.Problem == nil {
			return "no problem graph"
		}
		if p.Initial == nil {
			return "no initial mapping"
		}
		return ""
	},
}

func init() { Sema.Run = runSema }

func runSema(p *Pass) []Diagnostic {
	if p.Problem == nil || p.Initial == nil {
		return nil
	}
	frame := foldInitial(p)
	if frame == nil {
		return nil // perm-soundness owns invalid-initial findings
	}
	if semaDense(p, frame) {
		return nil
	}
	return semaGeneral(p)
}

// semaDense is the proof for the shape every compiled schedule has: only
// ZZ, ZZSwap and SWAP gates over a pinned program angle. There every
// frame entry stays a single variable, so every phase term is one logical
// pair and the whole polynomial fits in per-edge arrays indexed by the
// problem's edge ids. frame is the physical-to-logical view of
// Pass.Initial (-1 for unmapped qubits); it is consumed.
//
// It returns true only when the proof succeeds — every problem edge
// realized with total angle within sema.Tol of Pass.Angle, no other term,
// and the tracked frame equal to Pass.Final — which is exactly when the
// general engine (Extract, then Compare) reports nothing. On any other
// input (another gate kind, a term touching an unmapped qubit or a
// non-edge, a failed check, uniform mode) it returns false and the caller
// falls back to the general engine, which also words the diagnostics.
func semaDense(p *Pass, frame []int) bool {
	if p.Angle == 0 || len(p.Initial) != p.Problem.N() {
		return false
	}
	ix := p.edgeIndex()
	angle := make([]float64, ix.M())
	count := make([]int32, ix.M())
	nq := p.Circuit.NQubits
	for _, g := range p.Circuit.Gates {
		if g.Kind != circuit.GateZZ && g.Kind != circuit.GateZZSwap && g.Kind != circuit.GateSwap {
			return false
		}
		if g.Q0 < 0 || g.Q0 >= nq || g.Q1 < 0 || g.Q1 >= nq || g.Q0 == g.Q1 {
			return false
		}
		if g.Kind != circuit.GateSwap {
			id := ix.ID(frame[g.Q0], frame[g.Q1])
			if id < 0 {
				return false
			}
			angle[id] += g.Angle
			count[id]++
		}
		if g.Kind != circuit.GateZZ {
			frame[g.Q0], frame[g.Q1] = frame[g.Q1], frame[g.Q0]
		}
	}
	for id, a := range angle {
		if count[id] == 0 || !(math.Abs(a-p.Angle) <= sema.Tol) { // NaN fails too
			return false
		}
	}
	for l, ph := range p.Final {
		if ph >= 0 && ph < nq && frame[ph] != l {
			return false
		}
	}
	return true
}

// semaGeneral runs the general engine: symbolic extraction over bitset
// parities, then a term-by-term comparison against the problem
// polynomial. It handles every gate the executor knows and words every
// sema diagnostic.
func semaGeneral(p *Pass) []Diagnostic {
	var out []Diagnostic
	ext := sema.Extract(p.Circuit, p.Initial, p.Problem.N())
	for _, is := range ext.Issues {
		out = append(out, report(Sema, is.Gate, "%s", is.Msg))
	}
	want := sema.FromGraph(p.Problem, p.Angle)
	for _, m := range sema.Compare(ext.Poly, want, sema.Tol) {
		out = append(out, report(Sema, -1, "%s", m.Msg))
	}
	// The frame leg of the proof: when the compiler claims a final
	// mapping, the symbolically tracked frame must agree with it — this is
	// what makes "equal up to permutation" safe to rely on at readout.
	if p.Final != nil && len(ext.Issues) == 0 {
		for l, ph := range p.Final {
			if ph < 0 || ph >= len(ext.Final) {
				continue // perm-soundness reports out-of-range claims
			}
			if ext.Final[ph] != l {
				out = append(out, report(Sema, -1,
					"claimed final mapping puts logical %d at physical %d, but the tracked frame ends with %s there",
					l, ph, frameContent(ext.Final[ph])))
			}
		}
	}
	return out
}

func frameContent(l int) string {
	if l < 0 {
		return "no logical qubit"
	}
	return fmt.Sprintf("logical %d", l)
}
