// Command solver runs the depth-optimal A* solver (§4) on a small instance
// and prints the optimal schedule — the tool used to discover the
// structured patterns of §3.
//
// Usage:
//
//	solver -arch line -rows 1 -cols 5            # K5 clique on a 1x5 line
//	solver -arch grid -rows 2 -cols 3 -bipartite # 2xUnit sub-problem
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/solver"
)

func main() {
	var (
		family    = flag.String("arch", "line", "line or grid")
		rows      = flag.Int("rows", 1, "grid rows (ignored for line)")
		cols      = flag.Int("cols", 4, "line length / grid columns")
		bipartite = flag.Bool("bipartite", false, "solve the 2xUnit bipartite sub-problem instead of the clique")
		maxNodes  = flag.Int("maxnodes", 1<<22, "search node budget (negative = unbounded, e.g. -maxnodes -1)")
		symmetry  = flag.Bool("symmetry", false, "canonicalize states under line/grid automorphisms (same optimal depth, smaller search)")
		timeout   = flag.Duration("timeout", 0, "wall-clock search budget, e.g. 30s (0 = unbounded)")
		traceOut  = flag.String("trace", "", "record the search's execution trace (solver.astar span, explored/open/closed metrics) to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	writeTrace := traceWriterFor(*traceFmt)
	if writeTrace == nil {
		log.Fatalf("unknown -trace-format %q (want chrome, jsonl, or text)", *traceFmt)
	}

	// Flag values reach architecture constructors that treat bad sizes as
	// internal invariants; reject them at the user-input boundary instead.
	if *rows < 1 || *cols < 1 {
		log.Fatalf("-rows and -cols must be positive (got %d, %d)", *rows, *cols)
	}
	if *maxNodes == 0 {
		log.Fatal("-maxnodes must be positive, or negative for an unbounded search (got 0)")
	}

	var a *arch.Arch
	switch *family {
	case "line":
		a = arch.Line(*cols)
	case "grid":
		a = arch.Grid(*rows, *cols)
	default:
		log.Fatalf("unknown architecture %q", *family)
	}

	n := a.N()
	var p *graph.Graph
	if *bipartite {
		if *family != "grid" || *rows != 2 {
			log.Fatal("-bipartite requires -arch grid -rows 2")
		}
		p = graph.New(n)
		for i := 0; i < *cols; i++ {
			for j := *cols; j < 2**cols; j++ {
				p.AddEdge(i, j)
			}
		}
	} else {
		p = graph.Complete(n)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.New()
	}
	opts := solver.Options{MaxNodes: *maxNodes, Symmetry: *symmetry, Trace: tr}
	res, err := solver.SolveContext(ctx, a, p, nil, opts)
	if *traceOut != "" {
		// The span records the abandoned search too, so write the trace
		// before bailing on the error.
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := writeTrace(tr, f); werr != nil {
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%s)\n", *traceOut, *traceFmt)
	}
	if err != nil {
		log.Fatal(err)
	}
	nps := 0.0
	if sec := res.Elapsed.Seconds(); sec > 0 {
		nps = float64(res.Explored) / sec
	}
	fmt.Printf("architecture: %s\n", a)
	fmt.Printf("problem:      %d gates\n", p.M())
	fmt.Printf("optimal depth: %d cycles (%d nodes explored)\n", res.Depth, res.Explored)
	fmt.Printf("search: %.3fs, %.0f nodes/sec, peak open %d, peak closed %d\n",
		res.Elapsed.Seconds(), nps, res.PeakOpen, res.Generated)
	for i, cyc := range res.Cycles {
		fmt.Printf("cycle %2d:", i)
		for _, op := range cyc {
			if op.Gate {
				fmt.Printf("  gate%v@(%d,%d)", op.Tag, op.P, op.Q)
			} else {
				fmt.Printf("  swap(%d,%d)", op.P, op.Q)
			}
		}
		fmt.Println()
	}
}

// traceWriterFor maps a -trace-format value to an exporter (nil = unknown).
func traceWriterFor(format string) func(*obs.Trace, *os.File) error {
	switch format {
	case "chrome":
		return func(t *obs.Trace, f *os.File) error { return t.WriteChrome(f) }
	case "jsonl":
		return func(t *obs.Trace, f *os.File) error { return t.WriteJSONL(f) }
	case "text":
		return func(t *obs.Trace, f *os.File) error { return t.WriteText(f) }
	}
	return nil
}
