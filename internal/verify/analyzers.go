package verify

import (
	"math"
	"slices"

	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// ArchConformance checks the §4 admissibility condition on gate placement:
// every gate addresses qubits inside the device, and every two-qubit gate
// acts on an edge of the target coupling graph.
var ArchConformance = &Analyzer{
	Name:     "arch-conformance",
	Severity: SeverityError,
	Doc: `Every two-qubit gate must act on a coupling edge of the target
architecture (§4 admissibility). Also rejects out-of-range qubit indices,
self-loops, and a circuit whose qubit count disagrees with the device.`,
}

// PermSoundness checks the compiler's permutation bookkeeping: the initial
// mapping is an injection into the device, and folding every SWAP/ZZSwap
// over it reproduces the final mapping the compiler claims — the invariant
// behind reading logical outcomes out of the physical basis (§5–6).
var PermSoundness = &Analyzer{
	Name:     "perm-soundness",
	Severity: SeverityError,
	Doc: `The initial logical-to-physical mapping must be injective and in
range, and the logical-to-physical permutation obtained by folding the
circuit's SWAP and ZZSwap gates over it must match the final mapping the
compiler claims (Pass.Final). Tracks the 2QAN/tket-style permutation
argument for routing validity.`,
}

// Coverage checks the "all pairs meet" program invariant: every interaction
// term of the input problem is realized exactly once, by a program gate
// whose physical qubits hold that logical pair at that moment (§5.2, §6).
var Coverage = &Analyzer{
	Name:     "coverage",
	Severity: SeverityError,
	Doc: `Every edge of the input interaction graph must be realized by
exactly one ZZ/ZZSwap program gate, executed while the logical pair is
mapped onto the gate's physical qubits (the paper's all-pairs-meet
invariant for ATA patterns). Flags dropped terms, duplicated terms,
program gates on non-edges, and stale gate tags.`,
}

// DepthConsistency recomputes the decomposed ASAP depth from scratch and
// compares it with the depth the scheduler reports, so a broken layering
// or metrics path cannot silently misreport circuit cost (§7.1 metric).
var DepthConsistency = &Analyzer{
	Name:     "depth-consistency",
	Severity: SeverityError,
	Doc: `The ASAP critical-path depth of the decomposed circuit,
recomputed independently, must equal the depth the scheduler reports
(Pass.ReportedDepth). Guards the §7.1 depth metric against layering bugs.`,
}

// AngleSanity rejects non-finite rotation angles: a NaN or Inf angle means
// corrupted parameter binding upstream (a poisoned calibration, a broken
// optimizer step) silently produced a circuit no hardware can execute.
var AngleSanity = &Analyzer{
	Name:     "angle-sanity",
	Severity: SeverityError,
	Doc: `Every angle-carrying gate (ZZ, ZZSwap, RX, RZ) must have a finite
angle. NaN/Inf angles arise from corrupted upstream parameters — e.g. a
garbage calibration feeding the QAOA optimizer — and would only be caught
at hardware submission time. Fault-containment check, error severity.`,
}

// DeadSwap flags SWAPs that no later program gate depends on — they cost 3
// CX and change only the final permutation, which routing never needs.
var DeadSwap = &Analyzer{
	Name:     "dead-swap",
	Severity: SeverityWarning,
	Doc: `A SWAP whose moved qubits are never consumed by a later program
gate (directly or through further SWAPs) only permutes the output labels,
which readout relabeling gets for free. Each one wastes 3 CX. Optimization
lint, warning severity.`,
}

func init() {
	ArchConformance.Run = runArchConformance
	PermSoundness.Run = runPermSoundness
	Coverage.Run = runCoverage
	DepthConsistency.Run = runDepthConsistency
	AngleSanity.Run = runAngleSanity
	DeadSwap.Run = runDeadSwap

	// Applicability predicates: analyzers whose Run silently no-ops when
	// pass context is missing declare it here, so RunStatus can report a
	// skip instead of letting CI mistake "didn't run" for "clean".
	PermSoundness.Requires = func(p *Pass) string {
		if p.Initial == nil {
			return "no initial mapping"
		}
		return ""
	}
	Coverage.Requires = func(p *Pass) string {
		if p.Problem == nil {
			return "no problem graph"
		}
		if p.Initial == nil {
			return "no initial mapping"
		}
		return ""
	}
	DepthConsistency.Requires = func(p *Pass) string {
		if !p.CheckDepth {
			return "no reported depth"
		}
		return ""
	}
}

func runAngleSanity(p *Pass) []Diagnostic {
	var out []Diagnostic
	for i, g := range p.Circuit.Gates {
		switch g.Kind {
		case circuit.GateZZ, circuit.GateZZSwap, circuit.GateRX, circuit.GateRZ:
			if math.IsNaN(g.Angle) || math.IsInf(g.Angle, 0) {
				out = append(out, report(AngleSanity, i, "%v carries non-finite angle %v", g.Kind, g.Angle))
			}
		}
	}
	return out
}

func runArchConformance(p *Pass) []Diagnostic {
	var out []Diagnostic
	c := p.Circuit
	if p.Arch != nil && c.NQubits != p.Arch.N() {
		out = append(out, report(ArchConformance, -1,
			"circuit spans %d qubits but architecture %s has %d", c.NQubits, p.Arch.Name, p.Arch.N()))
	}
	var couplers *graph.EdgeIndex
	if p.Arch != nil {
		couplers = p.couplers.get(p.Arch.G)
	}
	for i, g := range c.Gates {
		if g.Q0 < 0 || g.Q0 >= c.NQubits {
			out = append(out, report(ArchConformance, i, "%v qubit %d out of range [0,%d)", g.Kind, g.Q0, c.NQubits))
			continue
		}
		if !g.Kind.TwoQubit() {
			continue
		}
		if g.Q1 < 0 || g.Q1 >= c.NQubits {
			out = append(out, report(ArchConformance, i, "%v qubit %d out of range [0,%d)", g.Kind, g.Q1, c.NQubits))
			continue
		}
		if g.Q1 == g.Q0 {
			out = append(out, report(ArchConformance, i, "%v is a self-loop on qubit %d", g.Kind, g.Q0))
			continue
		}
		if couplers != nil && couplers.ID(g.Q0, g.Q1) < 0 {
			out = append(out, report(ArchConformance, i,
				"%v on (%d,%d): not a coupling edge of %s", g.Kind, g.Q0, g.Q1, p.Arch.Name))
		}
	}
	return out
}

// foldInitial builds the physical-to-logical view of Pass.Initial, or nil
// if the mapping is not a valid injection into [0, NQubits).
func foldInitial(p *Pass) []int {
	p2l := make([]int, p.Circuit.NQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, ph := range p.Initial {
		if ph < 0 || ph >= len(p2l) || p2l[ph] != -1 {
			return nil
		}
		p2l[ph] = l
	}
	return p2l
}

func runPermSoundness(p *Pass) []Diagnostic {
	if p.Initial == nil {
		return nil
	}
	var out []Diagnostic
	p2l := make([]int, p.Circuit.NQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, ph := range p.Initial {
		switch {
		case ph < 0 || ph >= len(p2l):
			out = append(out, report(PermSoundness, -1, "initial mapping: logical %d -> invalid physical %d", l, ph))
		case p2l[ph] != -1:
			out = append(out, report(PermSoundness, -1,
				"initial mapping: physical %d holds both logical %d and %d", ph, p2l[ph], l))
		default:
			p2l[ph] = l
		}
	}
	if len(out) > 0 {
		return out // the fold below would only cascade from a broken start
	}
	// Fold the circuit's SWAPs over the initial permutation.
	l2p := append([]int(nil), p.Initial...)
	for i, g := range p.Circuit.Gates {
		if g.Kind != circuit.GateSwap && g.Kind != circuit.GateZZSwap {
			continue
		}
		if g.Q0 < 0 || g.Q0 >= len(p2l) || g.Q1 < 0 || g.Q1 >= len(p2l) || g.Q0 == g.Q1 {
			out = append(out, report(PermSoundness, i, "unfoldable %v on (%d,%d)", g.Kind, g.Q0, g.Q1))
			return out
		}
		lu, lv := p2l[g.Q0], p2l[g.Q1]
		p2l[g.Q0], p2l[g.Q1] = lv, lu
		if lu >= 0 {
			l2p[lu] = g.Q1
		}
		if lv >= 0 {
			l2p[lv] = g.Q0
		}
	}
	if p.Final != nil {
		if len(p.Final) != len(l2p) {
			out = append(out, report(PermSoundness, -1,
				"claimed final mapping covers %d logical qubits, circuit tracks %d", len(p.Final), len(l2p)))
			return out
		}
		for l := range l2p {
			if l2p[l] != p.Final[l] {
				out = append(out, report(PermSoundness, -1,
					"logical %d: SWAP fold ends at physical %d but compiler claims %d", l, l2p[l], p.Final[l]))
			}
		}
	}
	return out
}

func runCoverage(p *Pass) []Diagnostic {
	if p.Problem == nil || p.Initial == nil {
		return nil
	}
	p2l := foldInitial(p)
	if p2l == nil {
		return nil // perm-soundness owns invalid-initial findings
	}
	var out []Diagnostic
	ix := p.edgeIndex()
	done := make([]int32, ix.M())
	nq := p.Circuit.NQubits
	for i, g := range p.Circuit.Gates {
		if g.Kind.TwoQubit() && (g.Q0 < 0 || g.Q0 >= nq || g.Q1 < 0 || g.Q1 >= nq || g.Q0 == g.Q1) {
			continue // arch-conformance owns malformed indices
		}
		switch g.Kind {
		case circuit.GateZZ, circuit.GateZZSwap:
			l0, l1 := p2l[g.Q0], p2l[g.Q1]
			if l0 < 0 || l1 < 0 {
				out = append(out, report(Coverage, i, "program gate on unmapped physical qubit (%d,%d)", g.Q0, g.Q1))
			} else if id := ix.ID(l0, l1); id < 0 {
				out = append(out, report(Coverage, i, "program gate realizes %v, not an interaction term", graph.NewEdge(l0, l1)))
			} else {
				e := graph.NewEdge(l0, l1)
				if g.Tagged && g.Tag != e {
					out = append(out, report(Coverage, i, "tagged %v but the resident logical pair is %v", g.Tag, e))
				}
				done[id]++
				if done[id] == 2 {
					out = append(out, report(Coverage, i, "interaction term %v realized more than once", e))
				}
			}
		}
		if g.Kind == circuit.GateSwap || g.Kind == circuit.GateZZSwap {
			p2l[g.Q0], p2l[g.Q1] = p2l[g.Q1], p2l[g.Q0]
		}
	}
	if slices.Contains(done, 0) {
		for id, e := range p.Problem.Edges() {
			if done[id] == 0 {
				out = append(out, report(Coverage, -1, "interaction term %v never realized", e))
			}
		}
	}
	return out
}

func runDepthConsistency(p *Pass) []Diagnostic {
	if !p.CheckDepth {
		return nil
	}
	// Independent ASAP recomputation over the CX-basis expansion: a gate
	// starts one past the latest finish time among its operands. Checking
	// each source gate's first expanded gate checks its whole expansion
	// (see circuit.Gate.Expand).
	c := p.Circuit
	finish := make([]int, c.NQubits)
	depth := 0
	var buf [4]circuit.Gate
	for _, g := range c.Gates {
		exp := g.Expand(&buf)
		c.Check(exp[0])
		for _, e := range exp {
			start := finish[e.Q0]
			if e.Kind.TwoQubit() && finish[e.Q1] > start {
				start = finish[e.Q1]
			}
			end := start + 1
			finish[e.Q0] = end
			if e.Kind.TwoQubit() {
				finish[e.Q1] = end
			}
			if end > depth {
				depth = end
			}
		}
	}
	if depth != p.ReportedDepth {
		return []Diagnostic{report(DepthConsistency, -1,
			"scheduler reports depth %d but recomputed ASAP depth is %d", p.ReportedDepth, depth)}
	}
	return nil
}

func runDeadSwap(p *Pass) []Diagnostic {
	c := p.Circuit
	// Backward liveness over physical positions: live[q] means the logical
	// value sitting at q before the current gate is consumed by a later
	// program gate. A SWAP exchanges the demand on its two positions; a
	// SWAP with no demand on either side is dead.
	live := make([]bool, c.NQubits)
	var out []Diagnostic
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		if g.Q0 < 0 || g.Q0 >= c.NQubits || (g.Kind.TwoQubit() && (g.Q1 < 0 || g.Q1 >= c.NQubits)) {
			continue // arch-conformance owns malformed indices
		}
		switch g.Kind {
		case circuit.GateZZ, circuit.GateZZSwap:
			live[g.Q0], live[g.Q1] = true, true
		case circuit.GateSwap:
			if !live[g.Q0] && !live[g.Q1] {
				out = append(out, report(DeadSwap, i,
					"swap(%d,%d): no later program gate depends on it (3 wasted CX)", g.Q0, g.Q1))
			}
			live[g.Q0], live[g.Q1] = live[g.Q1], live[g.Q0]
		}
	}
	// Restore gate order (the sweep found them in reverse).
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}
