// Command ataqc compiles problem graphs onto regular quantum architectures
// and carries the rest of the paper's workflow as subcommands:
//
//	ataqc [flags]               compile a problem graph
//	ataqc solve [flags]         depth-optimal A* search on a small instance (§4)
//	ataqc lint [flags]          static verification of a compiled circuit
//	ataqc experiments [flags]   regenerate the evaluation tables and figures (§7)
//	ataqc warm [flags]          precompile a workload into a cache directory
//
// Compiling takes a synthetic problem or an edge list (one "u v" pair per
// line, 0-based vertex ids; blank lines and '#' comments are ignored):
//
//	ataqc -arch heavy-hex -n 64 -density 0.3 -strategy hybrid
//	ataqc -arch grid -problem edges.txt -json -qasm out.qasm
//
// Every subcommand takes -h for its flags. Exit codes: 0 success, 1 a
// failed run, 2 bad usage; lint documents its own 0/1/2 contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"time"

	"github.com/ata-pattern/ataqc/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands maps each subcommand name to its entry point; bare flags (or
// no arguments at all) select the compiler.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"solve":       runSolve,
	"lint":        runLint,
	"experiments": runExperiments,
	"warm":        runWarm,
}

// run dispatches args to a subcommand and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || len(args[0]) > 0 && args[0][0] == '-' {
		return runCompile(args, stdout, stderr)
	}
	cmd, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "ataqc: unknown subcommand %q (want solve, lint, experiments or warm, or flags to compile)\n", args[0])
		return 2
	}
	return cmd(args[1:], stdout, stderr)
}

// parse parses args into fs, reporting errors and usage on stderr. ok is
// false when the caller should return code at once: -h printed the usage
// (0) or a flag was malformed (2).
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// fail reports err and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}

// checkTraceFormat rejects a -trace-format value no exporter handles.
func checkTraceFormat(format string) error {
	if !slices.Contains(obs.Formats, format) {
		return fmt.Errorf("unknown -trace-format %q (want one of %v)", format, obs.Formats)
	}
	return nil
}

// startCPUProfile starts a CPU profile into path ("" = none). The returned
// stop flushes and closes it, reporting a failed close on stderr; callers
// defer it, so a run that fails after this point still leaves a complete
// profile.
func startCPUProfile(path string, stderr io.Writer) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
		}
	}, nil
}

// withTimeout bounds ctx by d (0 = unbounded).
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// writeTrace exports tr to path in format ("" path = tracing off) and
// notes the file on stderr.
func writeTrace(stderr io.Writer, tr interface{ WriteFormat(io.Writer, string) error }, path, format string) error {
	if path == "" {
		return nil
	}
	err := writeFile(path, func(w io.Writer) error { return tr.WriteFormat(w, format) })
	if err == nil {
		fmt.Fprintf(stderr, "trace: %s (%s)\n", path, format)
	}
	return err
}

// writeFile creates path and fills it with write, returning the first
// error of the create, the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
