// Package greedy implements the compiler's greedy processing component
// (§6.2): cycle-by-cycle frontier scheduling. Each cycle it (1) schedules a
// large conflict-free set of hardware-compliant program gates, chosen by
// colouring a conflict graph whose edges are shared qubits and crosstalk
// pairs, and (2) inserts SWAPs on the remaining qubits via a weighted
// matching whose weights combine routing benefit with link error rates
// (§5.3) — so gates migrate toward low-error couplings.
//
// Pure greedy compilation has no worst-case depth bound (§5.4); the hybrid
// framework in internal/core combines it with the structured ATA solution.
//
// Compile runs on the packed flat-arena engine (engine.go): int32 ids, CSR
// adjacency, bitmask conflict tracking, incrementally maintained gate
// distances, and sync.Pool recycling across compiles — zero steady-state
// allocations in the scheduling loop. The pre-rewrite implementation is
// preserved verbatim in reference_test.go as the equivalence oracle; the
// differential suite (differential_test.go, FuzzGreedyMatchesReference)
// pins the two engines byte-identical.
package greedy

import (
	"errors"
	"math"
	"sort"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// ErrNoProgress reports that the scheduler hit its cycle cap with gates
// still unscheduled — a budget-class failure the hybrid compiler answers
// with the structured-pattern fallback (Theorem 6.1).
var ErrNoProgress = errors.New("greedy: no progress")

// ErrInterrupted reports that Options.Interrupt aborted the compilation;
// it wraps the interrupt's cause (e.g. context.DeadlineExceeded), so
// errors.Is sees through it.
var ErrInterrupted = errors.New("greedy: interrupted")

// ErrUnreachable reports a problem edge whose endpoints sit in different
// connected components of the coupling graph: no SWAP sequence can ever
// bring them together, so failing up front beats walking forever.
var ErrUnreachable = errors.New("greedy: gate endpoints unreachable")

// Options configures the greedy compiler.
type Options struct {
	// Noise enables error-variability-aware SWAP placement; nil treats all
	// couplings as equal.
	Noise *noise.Model
	// CrosstalkAware adds crosstalk pairs to the gate-scheduling conflict
	// graph.
	CrosstalkAware bool
	// Angle is recorded on every program gate (QAOA binds γ per round when
	// it instantiates the schedule).
	Angle float64
	// MaxCycles aborts a runaway compilation (0 = 300*n + 2000; sparse
	// architectures like heavy-hex legitimately need many swap cycles for
	// dense problems).
	MaxCycles int
	// Checkpoint, if non-nil, is invoked after every cycle in which the
	// mapping changed, receiving the gate-list prefix length and a copy of
	// the current logical-to-physical mapping. The hybrid compiler uses it
	// to branch into ATA prediction (§6.3).
	Checkpoint func(prefixLen int, l2p []int, cycle int)
	// Interrupt, if non-nil, is polled once per scheduler cycle (including
	// each forced step of the stall-recovery walk). A non-nil return aborts
	// the compilation immediately with an ErrInterrupted-wrapped error —
	// the hybrid compiler's resource governor plugs in here.
	Interrupt func() error
	// Obs records scheduler telemetry (cycle/stall counters, per-cycle
	// scheduling histograms, stall-recovery events under ObsSpan) on the
	// given trace; nil disables it at the cost of one pointer check per
	// observation.
	Obs *obs.Trace
	// ObsSpan is the parent span stall-recovery events attach to.
	ObsSpan *obs.Span
}

// Result is a completed greedy compilation.
type Result struct {
	Circuit *circuit.Circuit
	Initial []int // initial logical-to-physical mapping
	Final   []int // final logical-to-physical mapping after all SWAPs
	Cycles  int   // scheduler cycles consumed
}

// Compile schedules every edge of problem on architecture a starting from
// the given initial mapping (see InitialMapping; identity if nil).
func Compile(a *arch.Arch, problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	eng := acquireEngine(a)
	defer releaseEngine(eng)
	return eng.compile(problem, initial, opts)
}

// vetoThreshold returns the CX error above which a link is excluded from
// routing: four times the median link error, floored at 10%.
func vetoThreshold(nm *noise.Model) float64 {
	errs := make([]float64, 0, len(nm.TwoQubit))
	//vet:ignore maprange collected values are sorted before use
	for _, e := range nm.TwoQubit {
		errs = append(errs, e)
	}
	sort.Float64s(errs)
	if len(errs) == 0 {
		return math.Inf(1)
	}
	t := 4 * errs[len(errs)/2]
	if t < 0.10 {
		t = 0.10
	}
	return t
}
