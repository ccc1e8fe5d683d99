package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/solver"
)

// runSolve runs the depth-optimal A* solver (§4) on a small instance and
// prints the optimal schedule — the tool used to discover the structured
// patterns of §3.
//
//	ataqc solve -arch line -rows 1 -cols 5            # K5 clique on a 1x5 line
//	ataqc solve -arch grid -rows 2 -cols 3 -bipartite # 2xUnit sub-problem
func runSolve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc solve", flag.ContinueOnError)
	var (
		family    = fs.String("arch", "line", "line or grid")
		rows      = fs.Int("rows", 1, "grid rows (ignored for line)")
		cols      = fs.Int("cols", 4, "line length / grid columns")
		bipartite = fs.Bool("bipartite", false, "solve the 2xUnit bipartite sub-problem instead of the clique")
		maxNodes  = fs.Int("maxnodes", 1<<22, "search node budget (negative = unbounded, e.g. -maxnodes -1)")
		symmetry  = fs.Bool("symmetry", false, "canonicalize states under line/grid automorphisms (same optimal depth, smaller search)")
		timeout   = fs.Duration("timeout", 0, "wall-clock search budget, e.g. 30s (0 = unbounded)")
		traceOut  = fs.String("trace", "", "record the search's execution trace (solver.astar span, explored/open/closed metrics) to this file")
		traceFmt  = fs.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
	)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if err := checkTraceFormat(*traceFmt); err != nil {
		return fail(stderr, err)
	}

	// Flag values reach architecture constructors that treat bad sizes as
	// internal invariants; reject them at the user-input boundary instead.
	if *rows < 1 || *cols < 1 {
		return fail(stderr, fmt.Errorf("-rows and -cols must be positive (got %d, %d)", *rows, *cols))
	}
	if *maxNodes == 0 {
		return fail(stderr, errors.New("-maxnodes must be positive, or negative for an unbounded search (got 0)"))
	}
	// The search takes an explicit rows x cols shape, which the near-square
	// family lookup (arch.ByFamily) cannot express.
	var a *arch.Arch
	switch *family {
	case "line":
		a = arch.Line(*cols)
	case "grid":
		a = arch.Grid(*rows, *cols)
	default:
		return fail(stderr, fmt.Errorf("unknown architecture %q", *family))
	}

	var p *graph.Graph
	if *bipartite {
		if *family != "grid" || *rows != 2 {
			return fail(stderr, errors.New("-bipartite requires -arch grid -rows 2"))
		}
		p = graph.New(a.N())
		for i := 0; i < *cols; i++ {
			for j := *cols; j < 2**cols; j++ {
				p.AddEdge(i, j)
			}
		}
	} else {
		p = graph.Complete(a.N())
	}

	ctx, cancel := withTimeout(context.Background(), *timeout)
	defer cancel()
	stop, err := startCPUProfile(*cpuProf, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stop()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.New()
	}
	opts := solver.Options{MaxNodes: *maxNodes, Symmetry: *symmetry, Trace: tr}
	res, err := solver.SolveContext(ctx, a, p, nil, opts)
	// The span records the abandoned search too, so the trace is written
	// before the error is reported.
	if werr := writeTrace(stderr, tr, *traceOut, *traceFmt); werr != nil || err != nil {
		return fail(stderr, errors.Join(err, werr))
	}
	nps := 0.0
	if sec := res.Elapsed.Seconds(); sec > 0 {
		nps = float64(res.Explored) / sec
	}
	fmt.Fprintf(stdout, "architecture: %s\n", a)
	fmt.Fprintf(stdout, "problem:      %d gates\n", p.M())
	fmt.Fprintf(stdout, "optimal depth: %d cycles (%d nodes explored)\n", res.Depth, res.Explored)
	fmt.Fprintf(stdout, "search: %.3fs, %.0f nodes/sec, peak open %d, peak closed %d\n",
		res.Elapsed.Seconds(), nps, res.PeakOpen, res.Generated)
	for i, cyc := range res.Cycles {
		fmt.Fprintf(stdout, "cycle %2d:", i)
		for _, op := range cyc {
			if op.Gate {
				fmt.Fprintf(stdout, "  gate%v@(%d,%d)", op.Tag, op.P, op.Q)
			} else {
				fmt.Fprintf(stdout, "  swap(%d,%d)", op.P, op.Q)
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
