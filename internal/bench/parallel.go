package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// HybridBenchEntry is one cell of the parallel-prediction benchmark: a
// method compiled on one (arch, graph) workload at one worker count. The
// Depth/CX/Swaps columns exist so the regression harness can assert
// worker-count parity — the parallel engine must never change the circuit,
// only Seconds.
type HybridBenchEntry struct {
	Method  string  `json:"method"`
	Arch    string  `json:"arch"`
	N       int     `json:"n"`
	Graph   string  `json:"graph"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"` // best-of-Repeats wall-clock
	// Phase breakdown of the best repeat, from the compiler's Timeline:
	// greedy scheduling, checkpoint prediction, ATA materialisation.
	GreedySeconds      float64 `json:"greedy_seconds"`
	PredictSeconds     float64 `json:"predict_seconds"`
	MaterializeSeconds float64 `json:"materialize_seconds"`
	Depth              int     `json:"depth"`
	CX                 int     `json:"cx"`
	Swaps              int     `json:"swaps"`
	// Speedup is Seconds of the workers=1 entry of the same cell divided by
	// this entry's Seconds (1.0 for the serial entry itself).
	Speedup float64 `json:"speedup"`
}

// HybridBench is the document serialised to BENCH_hybrid.json; see
// EXPERIMENTS.md for the schema contract.
type HybridBench struct {
	// GOMAXPROCS records the host parallelism the numbers were taken at:
	// every worker count shares the per-compile pattern cache, so the
	// speedup is the worker fan-out alone and needs more than one CPU.
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workers    []int              `json:"workers"` // the worker counts swept
	Entries    []HybridBenchEntry `json:"entries"`
}

// HybridBenchConfig sizes the sweep.
type HybridBenchConfig struct {
	Quick   bool  // CI sizes (≤36 qubits) instead of the full grid-64 cell
	Seed    int64 // workload seed (default 1)
	Repeats int   // wall-clock samples per cell, best kept (default 3)
}

// RunHybridBench sweeps the governed methods over (arch × n) workloads at
// Workers ∈ {1, 8} and measures wall-clock and circuit metrics. It returns
// an error — not just a slow number — when any parallel entry's
// depth/CX/swap counts diverge from its serial twin, so both the CI
// regression test and ad-hoc runs fail loudly on a determinism break.
func RunHybridBench(cfg HybridBenchConfig) (*HybridBench, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	type cell struct {
		family  string
		n       int
		density float64
	}
	cells := []cell{
		{"grid", 36, 0.5},
		{"heavy-hex", 36, 0.3},
	}
	if !cfg.Quick {
		// The headline cell: grid-64 / ER-0.5 is where the prediction pool
		// dominates compile time.
		cells = append(cells, cell{"grid", 64, 0.5}, cell{"heavy-hex", 64, 0.3})
	}
	out := &HybridBench{GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: []int{1, 8}}
	for _, c := range cells {
		a, err := ArchFor(c.family, c.n)
		if err != nil {
			return nil, err
		}
		a.Distances() // shared read-only across the sweep
		rng := rand.New(rand.NewSource(cfg.Seed))
		p := graph.GnpConnected(c.n, c.density, rng)
		graphName := fmt.Sprintf("rand-%d-%.1f", c.n, c.density)
		for _, method := range []string{MethodOurs} {
			var serial *HybridBenchEntry
			for _, workers := range out.Workers {
				e := HybridBenchEntry{
					Method: method, Arch: a.Name, N: c.n, Graph: graphName, Workers: workers,
				}
				for rep := 0; rep < cfg.Repeats; rep++ {
					start := time.Now()
					res, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid, Workers: workers})
					if err != nil {
						return nil, fmt.Errorf("%s on %s workers=%d: %w", method, a.Name, workers, err)
					}
					sec := time.Since(start).Seconds()
					if rep == 0 || sec < e.Seconds {
						e.Seconds = sec
						e.GreedySeconds = res.Timeline.PhaseDuration("greedy").Seconds()
						e.PredictSeconds = res.Timeline.PhaseDuration("predict").Seconds()
						e.MaterializeSeconds = res.Timeline.PhaseDuration("materialize").Seconds()
					}
					m := res.Metrics
					if rep == 0 {
						e.Depth, e.CX, e.Swaps = m.Depth, m.CXCount, m.Swaps
					} else if e.Depth != m.Depth || e.CX != m.CXCount || e.Swaps != m.Swaps {
						return nil, fmt.Errorf("%s on %s workers=%d: repeat %d changed the circuit (depth %d→%d, cx %d→%d)",
							method, a.Name, workers, rep, e.Depth, m.Depth, e.CX, m.CXCount)
					}
				}
				if serial == nil {
					e.Speedup = 1
					out.Entries = append(out.Entries, e)
					serial = &out.Entries[len(out.Entries)-1]
					continue
				}
				if e.Depth != serial.Depth || e.CX != serial.CX || e.Swaps != serial.Swaps {
					return nil, fmt.Errorf(
						"parallel regression: %s on %s/%s workers=%d produced depth=%d cx=%d swaps=%d, serial produced depth=%d cx=%d swaps=%d",
						method, a.Name, graphName, e.Workers, e.Depth, e.CX, e.Swaps, serial.Depth, serial.CX, serial.Swaps)
				}
				e.Speedup = serial.Seconds / e.Seconds
				out.Entries = append(out.Entries, e)
			}
		}
	}
	return out, nil
}

// WriteJSON serialises the benchmark document (indented, trailing newline)
// — the exact bytes checked in as BENCH_hybrid.json.
func (h *HybridBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}
