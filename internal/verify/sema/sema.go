// Package sema proves circuit semantics symbolically: it executes a
// compiled circuit once, in O(gates), over a parity frame — each physical
// qubit carries the F2 sum of logical variables whose Z operator it
// currently represents — and accumulates the diagonal phase polynomial the
// circuit implements. For the permutable-operator programs this compiler
// targets (QAOA cost layers, 2-local commuting Hamiltonians) that
// polynomial *is* the program: the compiled circuit is correct iff its
// polynomial equals the one read off the problem graph, exactly, up to
// final qubit permutation and term reordering (the Theorem 6.1 notion of
// equivalence — structure may change freely, semantics may not).
//
// The frame rules:
//
//   - every mapped physical qubit starts as the singleton parity of its
//     resident logical variable (Pass.Initial); unmapped qubits get
//     distinct auxiliary variables so any phase that touches them is
//     detectable as garbage rather than silently attributed;
//   - SWAP (and the SWAP half of ZZSwap) exchanges the two parity vectors —
//     this is how the logical↔physical frame is tracked through routing;
//   - CNOT(c,t) xors the control's parity into the target's, which is why
//     the same extractor verifies both pattern-level circuits and their
//     CX-decomposed forms (CX·RZ(θ)·CX conjugates back to a ZZ term);
//   - RZ(θ) on a qubit with parity S contributes the term (S, θ);
//     ZZ(θ)/ZZSwap(θ) on qubits with parities S, T contribute (S⊕T, θ);
//   - H is tolerated only as state preparation (before any diagonal gate
//     touches the qubit) and RX only as a trailing mixer layer (no
//     diagonal gate on that qubit afterwards) — exactly the QAOA shape;
//     anything else breaks diagonality and is reported, never guessed at.
//
// Terms over the same parity merge by summing angles, giving a normal
// form (the multiset view: Term.Count records how many gates merged).
// A zero parity is a global phase and compares as equal by convention.
package sema

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"github.com/ata-pattern/ataqc/internal/circuit"
)

// Parity is a set of variables over F2, packed as a bitset. Variables
// [0, NVars) are logical qubits; variables >= NVars are auxiliary (the
// unknown initial content of unmapped physical qubits).
type Parity []uint64

func newParity(nvars int) Parity { return make(Parity, (nvars+63)/64) }

func singleton(nvars, v int) Parity {
	p := newParity(nvars)
	p[v/64] |= 1 << uint(v%64)
	return p
}

// Xor folds o into p in place.
func (p Parity) Xor(o Parity) {
	for i := range p {
		p[i] ^= o[i]
	}
}

// Clone returns an independent copy.
func (p Parity) Clone() Parity {
	c := make(Parity, len(p))
	copy(c, p)
	return c
}

// Weight returns the number of variables in the parity.
func (p Parity) Weight() int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// Vars returns the variable indices in ascending order.
func (p Parity) Vars() []int {
	var out []int
	for i, w := range p {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Key returns a canonical map key for the parity ("" for the zero parity).
func (p Parity) Key() string {
	var buf []byte
	for _, v := range p.Vars() {
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// Term is one normal-form entry of a phase polynomial: the parity support,
// the total accumulated angle, and how many gate contributions merged.
type Term struct {
	Vars  []int
	Angle float64
	Count int
}

// describe renders the support for diagnostics: "(u,v)" for edges, the
// variable list otherwise, "1" for the constant (global-phase) term.
func (t Term) describe(nLogical int) string {
	if len(t.Vars) == 0 {
		return "1"
	}
	parts := make([]string, len(t.Vars))
	for i, v := range t.Vars {
		if v >= nLogical {
			parts[i] = fmt.Sprintf("aux%d", v-nLogical)
		} else {
			parts[i] = fmt.Sprintf("%d", v)
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Polynomial is the phase-polynomial normal form: canonical parity key ->
// merged term. NLogical records how many variables are logical qubits
// (higher indices are auxiliary).
type Polynomial struct {
	NLogical int
	Terms    map[string]Term
}

func newPolynomial(nLogical int) *Polynomial {
	return &Polynomial{NLogical: nLogical, Terms: make(map[string]Term)}
}

func (p *Polynomial) add(par Parity, angle float64) {
	k := par.Key()
	t, ok := p.Terms[k]
	if !ok {
		t = Term{Vars: par.Vars()}
	}
	t.Angle += angle
	t.Count++
	p.Terms[k] = t
}

// Keys returns the term keys in a deterministic (sorted) order.
func (p *Polynomial) Keys() []string {
	keys := make([]string, 0, len(p.Terms))
	//vet:ignore maprange collected keys are sorted before returning
	for k := range p.Terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Issue is a structural problem found during extraction: a gate that
// breaks the diagonal discipline the symbolic executor can reason about.
// Gate indexes the circuit's gate list; -1 marks end-of-circuit findings.
type Issue struct {
	Gate int
	Msg  string
}

// Extraction is the full symbolic-execution result.
type Extraction struct {
	// Poly is the diagonal phase polynomial the circuit implements.
	Poly *Polynomial
	// Mixer accumulates trailing RX angles per logical qubit (QAOA mixer
	// layer); empty for bare compiled schedules.
	Mixer map[int]float64
	// Final is the physical->logical frame at circuit end: Final[q] = l
	// when qubit q ends holding exactly logical variable l, -1 otherwise
	// (auxiliary content or an uncompensated CNOT ladder — the latter is
	// also reported as an Issue).
	Final []int
	// Issues lists diagonal-discipline violations; a non-empty list means
	// Poly may be incomplete and equivalence cannot be claimed.
	Issues []Issue
}

// qubit lifecycle stages for the H/RX discipline.
const (
	stagePre  = iota // untouched: H state-prep still allowed
	stageDiag        // inside the diagonal region
	stagePost        // after a mixer RX: no further gates allowed
)

// Extract symbolically executes c from the given logical-to-physical
// initial mapping and returns the phase polynomial, the mixer layer, the
// final frame, and any diagonal-discipline issues. It never simulates
// amplitudes: cost is O(gates · words-per-parity).
func Extract(c *circuit.Circuit, initial []int, nLogical int) *Extraction {
	ext := &Extraction{Mixer: make(map[int]float64)}
	nAux := 0
	mapped := make([]bool, c.NQubits)
	for _, p := range initial {
		if p >= 0 && p < c.NQubits {
			mapped[p] = true
		}
	}
	for q := 0; q < c.NQubits; q++ {
		if !mapped[q] {
			nAux++
		}
	}
	nvars := nLogical + nAux
	ext.Poly = newPolynomial(nLogical)

	// Frame initialisation: mapped qubits are logical singletons, the rest
	// get distinct auxiliary variables.
	frame := make([]Parity, c.NQubits)
	aux := nLogical
	for q := range frame {
		if !mapped[q] {
			frame[q] = singleton(nvars, aux)
			aux++
		}
	}
	for l, p := range initial {
		if p < 0 || p >= c.NQubits || frame[p] != nil {
			// An invalid or duplicated initial mapping is perm-soundness's
			// finding; sema cannot anchor a frame on it.
			ext.Issues = append(ext.Issues, Issue{Gate: -1,
				Msg: fmt.Sprintf("initial mapping unusable: logical %d -> physical %d", l, p)})
			return ext
		}
		frame[p] = singleton(nvars, l)
	}

	stage := make([]int, c.NQubits)
	issue := func(gate int, format string, args ...any) {
		ext.Issues = append(ext.Issues, Issue{Gate: gate, Msg: fmt.Sprintf(format, args...)})
	}
	// enterDiag moves q into the diagonal region, reporting a violation if
	// a mixer RX already retired it.
	enterDiag := func(gate, q int) bool {
		if stage[q] == stagePost {
			issue(gate, "diagonal gate on qubit %d after its mixer RX", q)
			return false
		}
		stage[q] = stageDiag
		return true
	}

	for i, g := range c.Gates {
		if g.Q0 < 0 || g.Q0 >= c.NQubits || (g.Kind.TwoQubit() && (g.Q1 < 0 || g.Q1 >= c.NQubits || g.Q1 == g.Q0)) {
			issue(i, "malformed operands, cannot track frame")
			return ext
		}
		switch g.Kind {
		case circuit.GateH:
			// |+> preparation; the frame is unchanged (we verify the
			// diagonal region, not the product-state prep), so H is legal
			// only while no diagonal gate has touched the qubit yet.
			if stage[g.Q0] != stagePre {
				issue(i, "h on qubit %d outside the state-preparation layer", g.Q0)
			}
		case circuit.GateRX:
			// Mixer layer: the qubit retires. Only meaningful per logical
			// qubit, so a non-singleton parity is a corrupted frame.
			if stage[g.Q0] == stagePost {
				ext.Mixer[mixerKey(frame[g.Q0], nLogical)] += g.Angle
				continue
			}
			vs := frame[g.Q0].Vars()
			if len(vs) != 1 || vs[0] >= nLogical {
				issue(i, "mixer rx on qubit %d whose parity %s is not a logical qubit",
					g.Q0, Term{Vars: vs}.describe(nLogical))
			} else {
				ext.Mixer[vs[0]] += g.Angle
			}
			stage[g.Q0] = stagePost
		case circuit.GateRZ:
			if !enterDiag(i, g.Q0) {
				continue
			}
			ext.Poly.add(frame[g.Q0], g.Angle)
		case circuit.GateCNOT:
			if !enterDiag(i, g.Q0) || !enterDiag(i, g.Q1) {
				continue
			}
			frame[g.Q1].Xor(frame[g.Q0])
		case circuit.GateZZ, circuit.GateZZSwap:
			if !enterDiag(i, g.Q0) || !enterDiag(i, g.Q1) {
				continue
			}
			t := frame[g.Q0].Clone()
			t.Xor(frame[g.Q1])
			ext.Poly.add(t, g.Angle)
			if g.Kind == circuit.GateZZSwap {
				frame[g.Q0], frame[g.Q1] = frame[g.Q1], frame[g.Q0]
				stage[g.Q0], stage[g.Q1] = stage[g.Q1], stage[g.Q0]
			}
		case circuit.GateSwap:
			if !enterDiag(i, g.Q0) || !enterDiag(i, g.Q1) {
				continue
			}
			frame[g.Q0], frame[g.Q1] = frame[g.Q1], frame[g.Q0]
		default:
			issue(i, "gate kind %v is outside the symbolic executor's grammar", g.Kind)
		}
	}

	// Final frame: singleton logical parities become the claimed final
	// mapping; anything wider is an uncompensated CNOT ladder.
	ext.Final = make([]int, c.NQubits)
	for q := range frame {
		ext.Final[q] = -1
		vs := frame[q].Vars()
		if len(vs) == 1 && vs[0] < nLogical {
			ext.Final[q] = vs[0]
		} else if len(vs) > 1 {
			issue(-1, fmt.Sprintf("qubit %d ends holding parity %s: uncompensated CNOT ladder",
				q, Term{Vars: vs}.describe(nLogical)))
		}
	}
	return ext
}

// mixerKey resolves the logical index for a post-stage RX merge (the
// parity was validated a singleton when the stage flipped).
func mixerKey(p Parity, nLogical int) int {
	vs := p.Vars()
	if len(vs) == 1 && vs[0] < nLogical {
		return vs[0]
	}
	return -1
}
