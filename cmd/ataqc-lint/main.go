// Command ataqc-lint statically verifies compiled circuits without
// simulating them. It runs the internal/verify analyzers — arch-conformance,
// perm-soundness, coverage, sema (phase-polynomial semantic equivalence),
// depth-consistency, angle-sanity, dead-swap — and prints one line per
// finding with machine-readable gate positions and operands.
//
// Two input modes:
//
//	ataqc-lint -problem edges.txt -arch grid [-strategy hybrid]
//	    compile the edge-list problem with the chosen strategy and lint the
//	    result with every analyzer (problem and mapping are known, so the
//	    full invariant set applies)
//	ataqc-lint -qasm out.qasm -arch grid
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/bench"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/verify"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		probFile = flag.String("problem", "", "edge-list problem file: compile it and lint the result")
		qasmFile = flag.String("qasm", "", "OpenQASM 2.0 file: lint the gate stream against the coupling graph")
		family   = flag.String("arch", "grid", "architecture family: line, grid, sycamore, heavy-hex, hexagon, mumbai")
		strategy = flag.String("strategy", "hybrid", "compiler for -problem mode: hybrid, greedy, ata, 2qan, qaim, paulihedral")
		semaOnly = flag.Bool("sema", false, "run only the phase-polynomial semantic-equivalence analyzer")
		werror   = flag.Bool("werror", false, "treat warning-severity findings as errors")
		asJSON   = flag.Bool("json", false, "emit one JSON finding per line plus a final analyzers summary object (the human summary moves to stderr)")
	)
	flag.Parse()

	if (*probFile == "") == (*qasmFile == "") {
		fmt.Fprintln(os.Stderr, "ataqc-lint: exactly one of -problem or -qasm is required")
		flag.Usage()
		return 2
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
			fmt.Fprintf(os.Stderr, "ataqc-lint: unknown strategy %q\n", *strategy)
			return 2
		}
		prob, err := ataqc.LoadProblem(*probFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 2
		}
		dev, err := deviceFor(*family, prob.Qubits())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 2
		}
		res, err := ataqc.Compile(dev, prob, ataqc.Options{Strategy: ataqc.Strategy(*strategy)})
		if err != nil {
			// Compile enforces the error-severity analyzers itself, so a
			// verification failure surfaces here — that is a lint failure,
			// not a usage error.
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 1
		}
		diags, statuses = res.LintStatus()
		label = fmt.Sprintf("%s on %s (%d gates)", *probFile, dev.Name(), res.CXCount())
	} else {
		f, err := os.Open(*qasmFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 2
		}
		c, parseErr := circuit.ParseQASM(f)
		f.Close()
		if parseErr != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", parseErr)
			return 1
		}
		// The qreg of QASM emitted by this toolchain records the physical
		// qubit count, so sizing the family to it reproduces the original
		// device; a mismatch is reported by the arch-conformance analyzer
		// rather than guessed away here.
		a, err := bench.ArchFor(*family, c.NQubits)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 2
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
		diags, statuses = onlySema(diags, statuses)
	}

	errs, warns := 0, 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *asJSON {
			// One finding per line, operands included so a consumer never has
			// to re-dump the circuit to locate the gate.
			if err := enc.Encode(struct {
				Analyzer string `json:"analyzer"`
				Severity string `json:"severity"`
				Gate     int    `json:"gate"`
				Kind     string `json:"kind,omitempty"`
				Q0       int    `json:"q0"`
				Q1       int    `json:"q1"`
				L0       int    `json:"l0"`
				L1       int    `json:"l1"`
				Message  string `json:"message"`
			}{d.Analyzer, d.Severity, d.Gate, d.Kind, d.Q0, d.Q1, d.L0, d.L1, d.Message}); err != nil {
				fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
				return 2
			}
		} else {
			fmt.Println(d)
		}
		if d.Severity == "error" {
			errs++
		} else {
			warns++
		}
	}
	summary := os.Stdout
	if *asJSON {
		summary = os.Stderr // keep stdout pure JSONL
		// The closing summary object records the full analyzer roster with
		// skip accounting; a CI diff against it catches analyzers that
		// silently stopped running.
		type status struct {
			Analyzer string `json:"analyzer"`
			Skipped  bool   `json:"skipped"`
			Reason   string `json:"reason,omitempty"`
		}
		sts := make([]status, len(statuses))
		for i, s := range statuses {
			sts[i] = status{s.Analyzer, s.Skipped, s.Reason}
		}
		if err := enc.Encode(struct {
			Analyzers []status `json:"analyzers"`
		}{sts}); err != nil {
			fmt.Fprintln(os.Stderr, "ataqc-lint:", err)
			return 2
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

// onlySema narrows findings and statuses to the sema analyzer for -sema.
func onlySema(diags []ataqc.Diagnostic, statuses []ataqc.AnalyzerStatus) ([]ataqc.Diagnostic, []ataqc.AnalyzerStatus) {
	var d []ataqc.Diagnostic
	for _, x := range diags {
		if x.Analyzer == "sema" {
			d = append(d, x)
		}
	}
	var s []ataqc.AnalyzerStatus
	for _, x := range statuses {
		if x.Analyzer == "sema" {
			s = append(s, x)
		}
	}
	return d, s
}

// deviceFor sizes a public-API device for -problem mode.
func deviceFor(family string, n int) (*ataqc.Device, error) {
	switch family {
	case "line":
		return ataqc.LineDevice(n), nil
	case "grid":
		return ataqc.GridDevice(n), nil
	case "sycamore":
		return ataqc.SycamoreDevice(n), nil
	case "heavy-hex", "heavyhex":
		return ataqc.HeavyHexDevice(n), nil
	case "hexagon":
		return ataqc.HexagonDevice(n), nil
	case "mumbai":
		return ataqc.MumbaiDevice(), nil
	}
	return nil, fmt.Errorf("unknown architecture family %q", family)
}
