package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"github.com/ata-pattern/ataqc/internal/bench"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// runExperiments regenerates the paper's evaluation tables and figures
// (§7) and writes them as markdown.
//
//	ataqc experiments -quick                 # laptop-scale versions of everything
//	ataqc experiments -exp fig17,table1      # a subset
//	ataqc experiments -out results.md        # full-scale run (up to 1024 qubits)
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc experiments", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "run reduced sizes (fast)")
		exps     = fs.String("exp", "all", "comma-separated experiment ids: fig17,fig20,fig22,table1,table2,table3,table4,tvd,fig24,fig25,fig26,ablations,sema")
		out      = fs.String("out", "", "write markdown to this file instead of stdout")
		trials   = fs.Int("trials", 0, "graphs per cell (default: 10 full / 3 quick)")
		seed     = fs.Int64("seed", 1, "workload seed")
		timeout  = fs.Duration("timeout", 0, "per-compile wall-clock budget, e.g. 2m (0 = unbounded); expired compiles degrade to the linear-depth ATA fallback instead of failing the run")
		workers  = fs.Int("workers", 0, "hybrid prediction workers per compile (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
		traceOut = fs.String("trace", "", "record every governed compile's execution trace to this file (concurrent trials interleave spans)")
		traceFmt = fs.String("trace-format", "chrome", "trace format: chrome (load in ui.perfetto.dev), jsonl, or text")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if err := checkTraceFormat(*traceFmt); err != nil {
		return fail(stderr, err)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *trials > 0 {
		cfg.Trials = *trials
	}
	cfg.Deadline = *timeout
	cfg.Workers = *workers
	if *traceOut != "" {
		cfg.Trace = obs.New()
	}

	type runner struct {
		id  string
		run func() (*bench.Report, error)
	}
	convRounds, fig25Qubits := 30, 16
	if *quick {
		convRounds, fig25Qubits = 12, 8
	}
	runners := []runner{
		{"fig17", func() (*bench.Report, error) { return bench.RunFig17(cfg) }},
		{"fig20", func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "heavy-hex") }},
		{"fig22", func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "sycamore") }},
		{"table1", func() (*bench.Report, error) { return bench.RunTable1(cfg) }},
		{"table2", func() (*bench.Report, error) { return bench.RunTable2(cfg) }},
		{"table3", func() (*bench.Report, error) { return bench.RunTable3(cfg) }},
		{"table4", func() (*bench.Report, error) { return bench.RunTable4(cfg) }},
		{"tvd", func() (*bench.Report, error) { return bench.RunTVD(cfg) }},
		{"fig24", func() (*bench.Report, error) { return bench.RunConvergence(cfg, 10, convRounds) }},
		{"fig25", func() (*bench.Report, error) { return bench.RunConvergence(cfg, fig25Qubits, convRounds) }},
		{"fig26", func() (*bench.Report, error) { return bench.RunCompileTime(cfg) }},
		{"ablations", func() (*bench.Report, error) { return bench.RunAblations(cfg) }},
		{"sema", func() (*bench.Report, error) { return bench.RunSemaAudit(cfg) }},
	}

	// A mistyped id would otherwise drop out silently and leave an empty
	// report behind a zero exit.
	valid := []string{"all"}
	for _, r := range runners {
		valid = append(valid, r.id)
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(valid, id) {
			fmt.Fprintf(stderr, "ataqc experiments: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ","))
			return 2
		}
		selected[id] = true
	}
	all := selected["all"]

	stop, err := startCPUProfile(*cpuProf, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stop()
	if *timeout > 0 {
		fmt.Fprintf(stderr, "per-compile deadline %s: compiles that run out of budget degrade to the structured ATA solution instead of failing the run\n", *timeout)
	}

	report := func(w io.Writer) error {
		fmt.Fprintf(w, "# ataqc experiment results\n\ngenerated %s, quick=%v, trials=%d, seed=%d\n\n",
			time.Now().Format(time.RFC3339), *quick, cfg.Trials, cfg.Seed)
		for _, r := range runners {
			if !all && !selected[r.id] {
				continue
			}
			start := time.Now()
			rep, err := r.run()
			if err != nil {
				return fmt.Errorf("%s: %w", r.id, err)
			}
			if _, err := rep.WriteTo(w); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%s done in %s\n", r.id, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	var runErr error
	if *out != "" {
		runErr = writeFile(*out, report)
	} else {
		runErr = report(stdout)
	}
	if werr := writeTrace(stderr, cfg.Trace, *traceOut, *traceFmt); werr != nil || runErr != nil {
		return fail(stderr, errors.Join(runErr, werr))
	}
	return 0
}
