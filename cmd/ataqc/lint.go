package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// runLint statically verifies compiled circuits without simulating them.
// It runs the internal/verify analyzers — arch-conformance,
// perm-soundness, coverage, sema (phase-polynomial semantic equivalence),
// depth-consistency, angle-sanity, dead-swap — and prints one line per
// finding with machine-readable gate positions and operands.
//
// Two input modes:
//
//	ataqc lint -problem edges.txt -arch grid [-strategy hybrid]
//	    compile the edge-list problem with the chosen strategy and lint the
//	    result with every analyzer (problem and mapping are known, so the
//	    full invariant set applies)
//	ataqc lint -qasm out.qasm -arch grid
//	    parse an OpenQASM 2.0 gate stream and lint it against the coupling
//	    graph of the architecture sized to its qreg (analyzers that need the
//	    interaction graph or mapping — coverage, perm-soundness, sema —
//	    report themselves as skipped: that context is not recoverable from
//	    plain QASM)
//
// -sema restricts the run to the semantic-equivalence analyzer alone.
//
// With -json, each finding is one JSON object per line, and the stream ends
// with a {"analyzers":[...]} summary object listing every analyzer that ran
// with a "skipped" marker for those whose required context was missing — so
// CI diffs detect silently-skipped analyzers instead of mistaking "didn't
// run" for "clean".
//
// Exit codes, suitable for CI: 0 = clean or warnings only, 1 = error
// findings, unparseable QASM, or warnings under -werror, 2 = bad usage or
// unreadable input.
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc lint", flag.ContinueOnError)
	var (
		probFile = fs.String("problem", "", "edge-list problem file: compile it and lint the result")
		qasmFile = fs.String("qasm", "", "OpenQASM 2.0 file: lint the gate stream against the coupling graph")
		family   = fs.String("arch", "grid", "architecture family: line, grid, sycamore, heavy-hex, hexagon, mumbai")
		strategy = fs.String("strategy", "hybrid", "compiler for -problem mode: hybrid, greedy, ata, 2qan, qaim, paulihedral")
		semaOnly = fs.Bool("sema", false, "run only the phase-polynomial semantic-equivalence analyzer")
		werror   = fs.Bool("werror", false, "treat warning-severity findings as errors")
		asJSON   = fs.Bool("json", false, "emit one JSON finding per line plus a final analyzers summary object (the human summary moves to stderr)")
	)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}

	if (*probFile == "") == (*qasmFile == "") {
		fmt.Fprintln(stderr, "ataqc lint: exactly one of -problem or -qasm is required")
		fs.Usage()
		return 2
	}

	exit := func(code int, err error) int {
		fmt.Fprintln(stderr, "ataqc lint:", err)
		return code
	}
	var (
		diags    []ataqc.Diagnostic
		statuses []ataqc.AnalyzerStatus
		label    string
	)
	if *probFile != "" {
		switch ataqc.Strategy(*strategy) {
		case ataqc.StrategyHybrid, ataqc.StrategyGreedy, ataqc.StrategyATA,
			ataqc.Strategy2QAN, ataqc.StrategyQAIM, ataqc.StrategyPaulihedral:
		default:
			return exit(2, fmt.Errorf("unknown strategy %q", *strategy))
		}
		prob, err := ataqc.LoadProblem(*probFile)
		if err != nil {
			return exit(2, err)
		}
		dev, err := ataqc.NewDevice(*family, prob.Qubits())
		if err != nil {
			return exit(2, err)
		}
		res, err := ataqc.Compile(dev, prob, ataqc.Options{Strategy: ataqc.Strategy(*strategy)})
		if err != nil {
			// Compile enforces the error-severity analyzers itself, so a
			// verification failure surfaces here — that is a lint failure,
			// not a usage error.
			return exit(1, err)
		}
		diags, statuses = res.LintStatus()
		label = fmt.Sprintf("%s on %s (%d gates)", *probFile, dev.Name(), res.CXCount())
	} else {
		f, err := os.Open(*qasmFile)
		if err != nil {
			return exit(2, err)
		}
		c, parseErr := circuit.ParseQASM(f)
		f.Close()
		if parseErr != nil {
			return exit(1, parseErr)
		}
		// The qreg of QASM emitted by this toolchain records the physical
		// qubit count, so sizing the family to it reproduces the original
		// device; a mismatch is reported by the arch-conformance analyzer
		// rather than guessed away here.
		a, err := arch.ByFamily(*family, c.NQubits)
		if err != nil {
			return exit(2, err)
		}
		// Plain QASM carries no interaction graph or mapping: run the full
		// analyzer list anyway and let the status accounting record which
		// ones skipped themselves for missing context.
		pass := &verify.Pass{Circuit: c, Arch: a}
		ds, sts := verify.RunStatus(pass, verify.All...)
		for _, d := range ds {
			diags = append(diags, ataqc.Diagnostic{
				Analyzer: d.Analyzer, Severity: d.Severity.String(), Gate: d.Gate,
				Kind: d.Kind, Q0: d.Q0, Q1: d.Q1, L0: d.L0, L1: d.L1,
				Message: d.Message,
			})
		}
		for _, s := range sts {
			statuses = append(statuses, ataqc.AnalyzerStatus{Analyzer: s.Name, Skipped: s.Skipped, Reason: s.Reason})
		}
		label = fmt.Sprintf("%s on %s (%d gates)", *qasmFile, a.Name, len(c.Gates))
	}
	if *semaOnly {
		diags = slices.DeleteFunc(diags, func(d ataqc.Diagnostic) bool { return d.Analyzer != "sema" })
		statuses = slices.DeleteFunc(statuses, func(s ataqc.AnalyzerStatus) bool { return s.Analyzer != "sema" })
	}

	errs, warns := 0, 0
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		if *asJSON {
			// One finding per line, operands included so a consumer never has
			// to re-dump the circuit to locate the gate.
			if err := enc.Encode(d); err != nil {
				return exit(2, err)
			}
		} else {
			fmt.Fprintln(stdout, d)
		}
		if d.Severity == "error" {
			errs++
		} else {
			warns++
		}
	}
	summary := stdout
	if *asJSON {
		summary = stderr // keep stdout pure JSONL
		// The closing summary object records the full analyzer roster with
		// skip accounting; a CI diff against it catches analyzers that
		// silently stopped running.
		if err := enc.Encode(struct {
			Analyzers []ataqc.AnalyzerStatus `json:"analyzers"`
		}{statuses}); err != nil {
			return exit(2, err)
		}
	} else {
		for _, s := range statuses {
			if s.Skipped {
				fmt.Fprintf(summary, "note: analyzer %s skipped: %s\n", s.Analyzer, s.Reason)
			}
		}
	}
	switch {
	case errs > 0 || (*werror && warns > 0):
		fmt.Fprintf(summary, "%s: %d error(s), %d warning(s)\n", label, errs, warns)
		return 1
	case warns > 0:
		fmt.Fprintf(summary, "%s: ok, %d warning(s)\n", label, warns)
	default:
		fmt.Fprintf(summary, "%s: ok\n", label)
	}
	return 0
}
