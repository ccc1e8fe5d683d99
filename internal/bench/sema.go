package bench

import (
	"fmt"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/baseline"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// RunSemaAudit runs the phase-polynomial semantic-equivalence analyzer
// (internal/verify/sema) over every compiler's raw output on a shared
// workload sweep and reports per-compiler pass/fail counts. Each compiled
// circuit is audited individually — a "pass" is zero sema findings on the
// raw gate stream; a compile that errors out (sema is also enforced inline
// at error severity, so a semantically wrong circuit cannot even be
// constructed) counts as a fail.
func RunSemaAudit(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "SemaAudit",
		Title:  "Semantic-equivalence audit per compiler (phase-polynomial analyzer)",
		Header: []string{"method", "circuits", "sema pass", "sema fail", "findings", "audit ms/circuit"},
	}
	sizes := cfg.sizes([]int{16, 32, 64}, []int{12, 24})
	methods := []string{MethodOurs, MethodGreedy, MethodSolver, MethodQAIM, MethodPaulihedral, Method2QAN}
	for _, method := range methods {
		circuits, pass, findings := 0, 0, 0
		var audit time.Duration
		for _, family := range []string{"heavy-hex", "sycamore"} {
			for _, density := range []float64{0.3, 0.5} {
				for _, n := range sizes {
					a, err := arch.ByFamily(family, n)
					if err != nil {
						return nil, err
					}
					w := RandomWorkload(n, density, cfg.trialsFor(n), cfg.Seed)
					for _, g := range w.Graphs {
						diags, d, err := semaAudit(method, a, g)
						if err != nil {
							return nil, fmt.Errorf("sema audit: %s on %s/%s: %w", method, a.Name, w.Name, err)
						}
						circuits++
						audit += d
						if len(diags) == 0 {
							pass++
						} else {
							findings += len(diags)
						}
					}
				}
			}
		}
		perCircuit := 0.0
		if circuits > 0 {
			perCircuit = audit.Seconds() * 1000 / float64(circuits)
		}
		r.Rows = append(r.Rows, []string{
			method, itoa(circuits), itoa(pass), itoa(circuits - pass),
			itoa(findings), fmt.Sprintf("%.2f", perCircuit),
		})
	}
	r.Notes = append(r.Notes,
		"The sema analyzer symbolically executes the compiled stream (frame tracking through SWAPs, phase-polynomial accumulation) and proves it equal to the problem Hamiltonian up to the final qubit permutation (Theorem 6.1).",
		"Every compiler also enforces sema inline at error severity, so a fail here means the compiler could not produce a verified circuit at all.")
	return r, nil
}

// semaAudit compiles one problem with the named method and re-runs only the
// sema analyzer on the raw output, timing just the analysis. A compile
// failure is reported as one circuit-level finding, not an error: the audit
// measures whether each compiler's output verifies, and "cannot construct a
// verified circuit" is the strongest form of failing.
func semaAudit(method string, a *arch.Arch, p *graph.Graph) ([]verify.Diagnostic, time.Duration, error) {
	var (
		c            *circuit.Circuit
		initial, fin []int
	)
	switch method {
	case MethodOurs, MethodGreedy, MethodSolver:
		mode := core.ModeHybrid
		if method == MethodGreedy {
			mode = core.ModeGreedy
		}
		if method == MethodSolver {
			mode = core.ModeATA
		}
		res, err := core.Compile(a, p, core.Options{Mode: mode, Workers: 1})
		if err != nil {
			return rejectedAt(method, err), 0, nil
		}
		c, initial, fin = res.Circuit, res.Initial, res.Final
	case MethodQAIM, MethodPaulihedral, Method2QAN:
		var (
			res *baseline.Result
			err error
		)
		switch method {
		case MethodQAIM:
			res, err = baseline.QAIM(a, p, 1)
		case MethodPaulihedral:
			res, err = baseline.Paulihedral(a, p, 1)
		default:
			res, err = baseline.TwoQAN(a, p, 1)
		}
		if err != nil {
			return rejectedAt(method, err), 0, nil
		}
		c, initial, fin = res.Circuit, res.Initial, res.Final
	default:
		return nil, 0, fmt.Errorf("bench: unknown method %q", method)
	}
	pass := &verify.Pass{Circuit: c, Arch: a, Problem: p, Initial: initial, Final: fin}
	start := time.Now()
	diags := verify.Run(pass, verify.Sema)
	return diags, time.Since(start), nil
}

// rejectedAt wraps a compile error as a circuit-level sema finding so the
// audit can count it as a fail instead of aborting the sweep.
func rejectedAt(method string, err error) []verify.Diagnostic {
	return []verify.Diagnostic{{
		Analyzer: "sema",
		Severity: verify.SeverityError,
		Gate:     -1,
		Message:  fmt.Sprintf("%s rejected its own output: %v", method, err),
	}}
}
