// Package verify is a static circuit-correctness analyzer: it walks a
// compiled circuit.Circuit without simulating it and reports structured
// diagnostics, modeled on go/analysis. Each Analyzer encodes one invariant
// the compiler must preserve — the §4 admissibility conditions (2q gates on
// coupled qubits, one gate per interaction term) and the §5–6 hybrid
// guarantee bookkeeping (SWAP-folded permutation soundness, depth
// consistency) — plus optimization lints such as dead-SWAP detection.
//
// The pass is pure inspection: analyzers never mutate the circuit and a
// clean run proves nothing about angles or unitaries, only about structure.
// The hybrid compiler (internal/core) runs the error-severity analyzers on
// every output; the baselines and benchmarks run the same pass, and
// `ataqc lint` (cmd/ataqc) exposes it to CI over QASM or edge-list inputs.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// Severity classifies a diagnostic. Errors are correctness violations — the
// circuit does not implement the program; warnings are optimization lints.
type Severity int

const (
	SeverityError Severity = iota
	SeverityWarning
)

func (s Severity) String() string {
	if s == SeverityWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one analyzer finding. Gate is the machine-readable
// position: an index into Pass.Circuit.Gates, or -1 for circuit-level
// findings (e.g. a problem edge that was never scheduled). Gate-anchored
// diagnostics also carry the gate's operands — kind, physical qubits, and
// the logical qubits resident there when the gate executes — so a finding
// is actionable without re-dumping the circuit; Run fills these in.
type Diagnostic struct {
	Analyzer string
	Severity Severity
	Gate     int
	// Kind is the offending gate's mnemonic ("zz", "swap", ...); empty for
	// circuit-level findings.
	Kind string
	// Q0, Q1 are the gate's physical operands (Q1 = -1 for 1q gates).
	Q0, Q1 int
	// L0, L1 are the logical qubits resident on Q0/Q1 immediately before
	// the gate executes; -1 when unmapped or when the pass carried no
	// usable initial mapping.
	L0, L1  int
	Message string
}

func (d Diagnostic) String() string {
	if d.Gate < 0 {
		return fmt.Sprintf("%s: %s: %s", d.Severity, d.Analyzer, d.Message)
	}
	if d.Kind == "" {
		return fmt.Sprintf("%s: %s: gate %d: %s", d.Severity, d.Analyzer, d.Gate, d.Message)
	}
	op := fmt.Sprintf("%s(%d)", d.Kind, d.Q0)
	if d.Q1 >= 0 {
		op = fmt.Sprintf("%s(%d,%d)", d.Kind, d.Q0, d.Q1)
	}
	log := ""
	switch {
	case d.L0 >= 0 && d.L1 >= 0:
		log = fmt.Sprintf("[logical (%d,%d)]", d.L0, d.L1)
	case d.L0 >= 0:
		log = fmt.Sprintf("[logical %d]", d.L0)
	}
	return fmt.Sprintf("%s: %s: gate %d %s%s: %s", d.Severity, d.Analyzer, d.Gate, op, log, d.Message)
}

// Pass is the unit of analysis: one compiled circuit plus the compilation
// context the analyzers check it against. Circuit is required; every other
// field widens the set of invariants that can be checked (analyzers skip
// silently when their inputs are absent).
type Pass struct {
	// Circuit is the compiled circuit under analysis.
	Circuit *circuit.Circuit
	// Arch is the target architecture; enables coupling-graph conformance.
	Arch *arch.Arch
	// Problem is the input interaction graph; enables coverage analysis.
	Problem *graph.Graph
	// Initial is the logical-to-physical mapping at circuit start. Required
	// by coverage and perm-soundness.
	Initial []int
	// Final, when non-nil, is the final mapping the compiler claims;
	// perm-soundness refolds the SWAPs and compares.
	Final []int
	// ReportedDepth is the decomposed ASAP depth the scheduler reports;
	// checked by depth-consistency only when CheckDepth is set (a zero
	// depth is legitimate for empty circuits, so presence needs a flag).
	ReportedDepth int
	CheckDepth    bool
	// Angle is the uniform program-gate angle the compiler recorded on its
	// ZZ/ZZSwap gates; the sema analyzer pins every phase-polynomial term
	// to it. Zero means unknown: sema then requires all terms to agree on
	// one shared non-zero angle instead of a specific value.
	Angle float64
}

// Analyzer is one named static check, go/analysis style.
type Analyzer struct {
	// Name is the analyzer's stable kebab-case identifier.
	Name string
	// Doc is a one-paragraph description of the invariant checked and where
	// it comes from in the paper.
	Doc string
	// Severity is the severity of every diagnostic this analyzer reports.
	Severity Severity
	// Run inspects the pass and returns findings (nil when clean).
	Run func(p *Pass) []Diagnostic
	// Requires, when non-nil, reports why the analyzer cannot run against
	// the pass ("" = it can). RunStatus uses it to distinguish "clean"
	// from "silently skipped for missing context" — a distinction CI
	// diffs need, since a skipped analyzer proves nothing.
	Requires func(p *Pass) string
}

// skipReason resolves the analyzer's applicability against a pass.
func (a *Analyzer) skipReason(p *Pass) string {
	if a.Requires == nil {
		return ""
	}
	return a.Requires(p)
}

// Status records whether one analyzer actually ran against a pass.
type Status struct {
	// Name is the analyzer's identifier.
	Name string
	// Skipped is true when required pass context was missing.
	Skipped bool
	// Reason says which context was missing ("" when the analyzer ran).
	Reason string
}

// All lists every registered analyzer, errors first.
var All = []*Analyzer{ArchConformance, PermSoundness, Coverage, Sema, DepthConsistency, AngleSanity, DeadSwap}

// Strict lists the error-severity analyzers — the set a compiler output
// must pass for the compilation to be considered correct.
var Strict = []*Analyzer{ArchConformance, PermSoundness, Coverage, Sema, DepthConsistency, AngleSanity}

// Run executes the analyzers against the pass and returns their combined
// diagnostics, ordered by gate position (circuit-level findings last).
func Run(p *Pass, analyzers ...*Analyzer) []Diagnostic {
	diags, _ := RunStatus(p, analyzers...)
	return diags
}

// RunStatus is Run plus per-analyzer accounting: the second return lists
// every requested analyzer in order, marking the ones that skipped
// themselves because the pass lacked their required context.
func RunStatus(p *Pass, analyzers ...*Analyzer) ([]Diagnostic, []Status) {
	var out []Diagnostic
	statuses := make([]Status, 0, len(analyzers))
	for _, a := range analyzers {
		if reason := a.skipReason(p); reason != "" {
			statuses = append(statuses, Status{Name: a.Name, Skipped: true, Reason: reason})
			continue
		}
		statuses = append(statuses, Status{Name: a.Name})
		out = append(out, a.Run(p)...)
	}
	annotate(p, out)
	sort.SliceStable(out, func(i, j int) bool {
		gi, gj := out[i].Gate, out[j].Gate
		if gi < 0 {
			gi = int(^uint(0) >> 1)
		}
		if gj < 0 {
			gj = int(^uint(0) >> 1)
		}
		return gi < gj
	})
	return out, statuses
}

// annotate fills the operand fields of gate-anchored diagnostics: the
// gate's kind and physical qubits always, plus the logical qubits resident
// there at execution time when the pass carries a usable initial mapping
// (one forward frame fold, shared across all diagnostics).
func annotate(p *Pass, diags []Diagnostic) {
	needFrame := false
	for i := range diags {
		d := &diags[i]
		if d.Gate < 0 || d.Gate >= len(p.Circuit.Gates) {
			d.Q0, d.Q1, d.L0, d.L1 = -1, -1, -1, -1
			continue
		}
		g := p.Circuit.Gates[d.Gate]
		d.Kind = g.Kind.String()
		d.Q0, d.Q1 = g.Q0, g.Q1
		if !g.Kind.TwoQubit() {
			d.Q1 = -1
		}
		d.L0, d.L1 = -1, -1
		needFrame = true
	}
	if !needFrame || p.Initial == nil {
		return
	}
	p2l := foldInitial(p)
	if p2l == nil {
		return
	}
	// Frames are needed at each diagnostic's gate index; a single forward
	// fold visits them in order (diagnostics are not yet sorted here, so
	// index them by gate first).
	byGate := make(map[int][]*Diagnostic)
	for i := range diags {
		if d := &diags[i]; d.Gate >= 0 && d.Gate < len(p.Circuit.Gates) {
			byGate[d.Gate] = append(byGate[d.Gate], d)
		}
	}
	inRange := func(q int) bool { return q >= 0 && q < len(p2l) }
	for i, g := range p.Circuit.Gates {
		for _, d := range byGate[i] {
			if inRange(d.Q0) {
				d.L0 = p2l[d.Q0]
			}
			if d.Q1 >= 0 && inRange(d.Q1) {
				d.L1 = p2l[d.Q1]
			}
		}
		if (g.Kind == circuit.GateSwap || g.Kind == circuit.GateZZSwap) &&
			inRange(g.Q0) && inRange(g.Q1) && g.Q0 != g.Q1 {
			p2l[g.Q0], p2l[g.Q1] = p2l[g.Q1], p2l[g.Q0]
		}
	}
}

// Check runs the analyzers and converts error-severity findings into a
// single error (nil when the circuit is clean or has only warnings).
func Check(p *Pass, analyzers ...*Analyzer) error {
	return AsError(Run(p, analyzers...))
}

// AsError folds the error-severity diagnostics of a run into one error,
// or nil if none. Warnings never produce an error.
func AsError(diags []Diagnostic) error {
	var errs []string
	for _, d := range diags {
		if d.Severity == SeverityError {
			errs = append(errs, d.String())
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d violation(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
}

// report is a small helper for analyzer implementations.
func report(a *Analyzer, gate int, format string, args ...any) Diagnostic {
	return Diagnostic{Analyzer: a.Name, Severity: a.Severity, Gate: gate, Message: fmt.Sprintf(format, args...)}
}
