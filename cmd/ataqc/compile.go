package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"github.com/ata-pattern/ataqc"
)

// runCompile compiles a problem graph — synthetic or loaded from an edge
// list — onto a regular architecture and reports the paper's metrics.
func runCompile(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc", flag.ContinueOnError)
	var (
		family   = fs.String("arch", "heavy-hex", "architecture family: line, grid, sycamore, heavy-hex, hexagon, mumbai")
		n        = fs.Int("n", 64, "number of logical qubits")
		density  = fs.Float64("density", 0.3, "problem graph density")
		regular  = fs.Bool("regular", false, "use a random regular graph instead of G(n,p)")
		seed     = fs.Int64("seed", 1, "workload seed")
		strategy = fs.String("strategy", "hybrid", "hybrid, greedy, ata, 2qan, qaim, paulihedral")
		noisy    = fs.Bool("noise", false, "attach a synthetic calibration and compile noise-aware")
		qasmOut  = fs.String("qasm", "", "write the compiled circuit as OpenQASM 2.0 to this file")
		probFile = fs.String("problem", "", "load the problem graph from an edge-list file instead of generating one")
		asJSON   = fs.Bool("json", false, "emit the result as JSON")
		showArch = fs.Bool("show-arch", false, "print an ASCII picture of the device and exit")
		showSch  = fs.Bool("schedule", false, "print the compiled schedule cycle by cycle")
		timeout  = fs.Duration("timeout", 0, "wall-clock compile budget, e.g. 30s (0 = unbounded); on expiry the compiler degrades to the linear-depth ATA fallback")
		workers  = fs.Int("workers", 0, "hybrid prediction workers (0 = GOMAXPROCS, 1 = serial); the compiled circuit is identical for every value")
		traceOut = fs.String("trace", "", "record the compile's execution trace to this file (tracing never changes the circuit)")
		traceFmt = fs.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file; compiler phases carry ataqc_phase/ataqc_worker pprof labels")
	)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if err := checkTraceFormat(*traceFmt); err != nil {
		return fail(stderr, err)
	}

	// Flag values feed generators and device constructors that treat bad
	// sizes as internal invariants; reject them at the user-input boundary.
	if *probFile == "" {
		if *n < 2 {
			return fail(stderr, fmt.Errorf("-n must be at least 2 (got %d)", *n))
		}
		if *density <= 0 || *density > 1 {
			return fail(stderr, fmt.Errorf("-density must be in (0,1] (got %g)", *density))
		}
	}

	// The problem comes first: a file-loaded instance determines the
	// device size.
	var (
		prob *ataqc.Problem
		err  error
	)
	switch {
	case *probFile != "":
		prob, err = ataqc.LoadProblem(*probFile)
	case *regular:
		prob, err = ataqc.RegularProblem(*n, *density, *seed)
	default:
		prob = ataqc.RandomProblem(*n, *density, *seed)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if *probFile != "" {
		*n, *density = prob.Qubits(), prob.Density()
	}

	dev, err := ataqc.NewDevice(*family, *n)
	if err != nil {
		return fail(stderr, err)
	}
	if *noisy {
		dev = dev.WithSyntheticNoise(*seed)
	}
	if *showArch {
		fmt.Fprintf(stdout, "%s (%d qubits)\n%s", dev.Name(), dev.Qubits(), dev.Render())
		return 0
	}

	ctx, cancel := withTimeout(context.Background(), *timeout)
	defer cancel()
	stop, err := startCPUProfile(*cpuProf, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stop()
	var tr *ataqc.Trace
	if *traceOut != "" {
		tr = ataqc.NewTrace()
	}
	res, err := ataqc.CompileContext(ctx, dev, prob, ataqc.Options{
		Strategy:   ataqc.Strategy(*strategy),
		NoiseAware: *noisy,
		Workers:    *workers,
		Trace:      tr,
	})
	// A failed compile's spans are still worth keeping, so the trace is
	// written before the error is reported.
	if werr := writeTrace(stderr, tr, *traceOut, *traceFmt); werr != nil || err != nil {
		return fail(stderr, errors.Join(err, werr))
	}
	if res.Degraded() {
		fmt.Fprintf(stderr, "note: compile budget ran out; degraded to the structured ATA fallback (%s)\n", res.DegradeReason())
	}

	// The QASM file is written before the output branches so -json and
	// -qasm compose: JSON on stdout, circuit on disk.
	if *qasmOut != "" {
		if err := writeFile(*qasmOut, res.WriteQASM); err != nil {
			return fail(stderr, err)
		}
	}

	if *asJSON {
		out := map[string]any{
			"device":       dev.Name(),
			"deviceQubits": dev.Qubits(),
			"qubits":       prob.Qubits(),
			"interactions": prob.Interactions(),
			"strategy":     *strategy,
			"depth":        res.Depth(),
			"cxCount":      res.CXCount(),
			"swaps":        res.SwapCount(),
			"initial":      res.InitialMapping(),
			"final":        res.FinalMapping(),
		}
		if res.Degraded() {
			out["degraded"] = true
			out["degradeReason"] = res.DegradeReason()
		}
		if *noisy {
			out["estimatedFidelity"] = res.EstimatedFidelity()
		}
		if *qasmOut != "" {
			out["qasm"] = *qasmOut
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "device:        %s (%d qubits)\n", dev.Name(), dev.Qubits())
	fmt.Fprintf(stdout, "problem:       %d qubits, %d interactions (density %.2f)\n",
		prob.Qubits(), prob.Interactions(), *density)
	fmt.Fprintf(stdout, "strategy:      %s\n", *strategy)
	fmt.Fprintf(stdout, "depth:         %d\n", res.Depth())
	fmt.Fprintf(stdout, "CX count:      %d\n", res.CXCount())
	fmt.Fprintf(stdout, "SWAPs:         %d\n", res.SwapCount())
	if *noisy {
		fmt.Fprintf(stdout, "est. fidelity: %.4g\n", res.EstimatedFidelity())
	}
	if *showSch {
		if err := res.WriteSchedule(stdout); err != nil {
			return fail(stderr, err)
		}
	}
	if *qasmOut != "" {
		fmt.Fprintf(stdout, "qasm:          %s\n", *qasmOut)
	}
	return 0
}
