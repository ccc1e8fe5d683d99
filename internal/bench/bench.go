// Package bench regenerates every table and figure of the paper's
// evaluation (§7): workload generation, method comparison, and formatted
// report emission. Each Run* function corresponds to one experiment of the
// index in DESIGN.md and returns a Report whose rows mirror the paper's.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/baseline"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// Report is a formatted experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteTo renders the report as a markdown table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(r.Header, " | "))
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Method names accepted by CompileWith.
const (
	MethodOurs        = "ours"
	MethodGreedy      = "greedy"
	MethodSolver      = "solver" // the solver-guided pure-ATA circuit
	MethodQAIM        = "qaim"
	MethodPaulihedral = "paulihedral"
	Method2QAN        = "2qan"
)

// Stats are the per-compilation measurements reported in §7.
type Stats struct {
	Method  string
	Depth   int
	CX      int
	Swaps   int
	Seconds float64
	LogFid  float64
	// Phase breakdown of the governed compiles (ours/greedy/solver), from
	// the compiler's Timeline: where Seconds went. Zero for the baseline
	// reimplementations, which are not instrumented.
	GreedySec      float64
	PredictSec     float64
	MaterializeSec float64
	// Degraded reports that at least one underlying compile ran out of its
	// per-compile deadline and fell back to the structured ATA solution.
	Degraded bool
}

// CompileWith compiles problem on a with the named method and measures it.
func CompileWith(method string, a *arch.Arch, p *graph.Graph, nm *noise.Model) (Stats, error) {
	return CompileWithOptions(method, a, p, nm, 0, 0, nil)
}

// CompileWithDeadline is CompileWith under a per-compile wall-clock budget
// (0 = unbounded). The governed methods (ours/greedy/solver) degrade to the
// structured ATA fallback when the budget expires — Stats.Degraded reports
// it; the baseline reimplementations are not governed and ignore it.
func CompileWithDeadline(method string, a *arch.Arch, p *graph.Graph, nm *noise.Model, deadline time.Duration) (Stats, error) {
	return CompileWithOptions(method, a, p, nm, deadline, 0, nil)
}

// CompileWithOptions is CompileWithDeadline with an explicit worker count
// for the hybrid prediction loop (0 = GOMAXPROCS default, 1 = serial) and
// an optional trace the governed compiles attach to (nil = untraced).
// Neither changes the measured circuit — only Seconds.
func CompileWithOptions(method string, a *arch.Arch, p *graph.Graph, nm *noise.Model, deadline time.Duration, workers int, tr *obs.Trace) (Stats, error) {
	start := time.Now()
	var (
		m        core.Metrics
		tl       core.Timeline
		degraded bool
		err      error
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
		var res *core.Result
		res, err = core.Compile(a, p, core.Options{Mode: mode, Noise: nm, Deadline: deadline, Workers: workers, Trace: tr})
		if err == nil {
			m = res.Metrics
			tl = res.Timeline
			degraded = res.Degraded
		}
	case MethodQAIM, MethodPaulihedral, Method2QAN:
		var res *baseline.Result
		switch method {
		case MethodQAIM:
			res, err = baseline.QAIM(a, p, 1)
		case MethodPaulihedral:
			res, err = baseline.Paulihedral(a, p, 1)
		default:
			res, err = baseline.TwoQAN(a, p, 1)
		}
		if err == nil {
			m = core.Measure(res.Circuit, nm)
		}
	default:
		err = fmt.Errorf("bench: unknown method %q", method)
	}
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Method:         method,
		Depth:          m.Depth,
		CX:             m.CXCount,
		Swaps:          m.Swaps,
		Seconds:        time.Since(start).Seconds(),
		LogFid:         m.LogFidelity,
		GreedySec:      tl.PhaseDuration("greedy").Seconds(),
		PredictSec:     tl.PhaseDuration("predict").Seconds(),
		MaterializeSec: tl.PhaseDuration("materialize").Seconds(),
		Degraded:       degraded,
	}, nil
}

// Workload describes one benchmark graph family instance.
type Workload struct {
	Name   string
	Graphs []*graph.Graph
}

// RandomWorkload returns `trials` connected G(n, density) samples.
func RandomWorkload(n int, density float64, trials int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: fmt.Sprintf("rand-%d-%.1f", n, density)}
	for i := 0; i < trials; i++ {
		w.Graphs = append(w.Graphs, graph.GnpConnected(n, density, rng))
	}
	return w
}

// RegularWorkload returns `trials` random regular graphs with density close
// to the target (§7.1).
func RegularWorkload(n int, density float64, trials int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: fmt.Sprintf("reg-%d-%.1f", n, density)}
	for i := 0; i < trials; i++ {
		g, err := graph.RegularByDensity(n, density, rng)
		if err != nil {
			// Audit note: only in-repo experiment configs with known-feasible
			// (n, density) pairs reach this; infeasibility here is a broken
			// experiment table, which is an internal invariant.
			panic(fmt.Sprintf("bench: infeasible workload reg-%d-%.1f: %v", n, density, err))
		}
		w.Graphs = append(w.Graphs, g)
	}
	return w
}

// averageStats compiles every graph of a workload with a method and
// averages the measurements, honoring a per-compile deadline (0 =
// unbounded), a per-compile worker count, and an optional shared trace
// (obs traces are concurrency-safe). Trials run concurrently (they are
// independent compilations), bounded by GOMAXPROCS.
func averageStats(method string, a *arch.Arch, w Workload, nm *noise.Model, deadline time.Duration, workers int, tr *obs.Trace) (Stats, error) {
	// Force the lazy all-pairs distance cache before fanning out: the
	// architecture is shared across goroutines and must be read-only.
	a.Distances()
	results := make([]Stats, len(w.Graphs))
	errs := make([]error, len(w.Graphs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, g := range w.Graphs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = CompileWithOptions(method, a, g, nm, deadline, workers, tr)
		}(i, g)
	}
	wg.Wait()
	var acc Stats
	for i := range results {
		if errs[i] != nil {
			return Stats{}, fmt.Errorf("%s on %s/%s: %w", method, a.Name, w.Name, errs[i])
		}
		acc.Depth += results[i].Depth
		acc.CX += results[i].CX
		acc.Swaps += results[i].Swaps
		acc.Seconds += results[i].Seconds
		acc.LogFid += results[i].LogFid
		acc.GreedySec += results[i].GreedySec
		acc.PredictSec += results[i].PredictSec
		acc.MaterializeSec += results[i].MaterializeSec
		acc.Degraded = acc.Degraded || results[i].Degraded
	}
	k := len(w.Graphs)
	acc.Method = method
	acc.Depth /= k
	acc.CX /= k
	acc.Swaps /= k
	acc.Seconds /= float64(k)
	acc.LogFid /= float64(k)
	acc.GreedySec /= float64(k)
	acc.PredictSec /= float64(k)
	acc.MaterializeSec /= float64(k)
	return acc, nil
}
