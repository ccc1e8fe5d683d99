// Package solver implements the paper's depth-optimal A* solver (§4): given
// a logical circuit of permutable two-qubit gates (a problem graph), a
// coupling architecture, and an initial mapping, it finds a transformed
// circuit of provably minimal depth, where every cycle schedules a set of
// qubit-disjoint operations (program gates on coupled wanted pairs, or
// SWAPs on coupled pairs).
//
// The priority function is f(v) = c(v) + h(v) with the admissible h of
// Definitions 3–4: for every remaining gate (qi, qj) at distance d with
// remaining problem degrees deg(qi), deg(qj),
//
//	cost(qi,qj) = min_{x=0..d-1} max(deg(qi)+x, deg(qj)+d-1-x)
//	h(v)        = max over remaining gates of cost
//
// which lower-bounds the cycles to any terminal (Theorems 1–2), so A*
// returns a depth-optimal schedule. The solver is intended for the small
// sub-problem instances of §3 (1xN lines, 2xN ladders, small grids); its
// search space is exponential in the architecture size.
//
// Two engines live in this package. The default engine (engine.go) packs
// each state into a flat byte string held in an arena, dedupes states with
// an open-addressing table, evaluates the heuristic with a closed form and
// per-edge incremental updates, and prunes dominated expansions; see
// DESIGN.md "Solver internals" for the encoding and the admissibility
// argument of each pruning rule. The pre-optimization engine is kept as
// referenceSolve (reference_test.go), the equivalence oracle the property
// tests compare against.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// Op is one operation scheduled in a cycle.
type Op struct {
	P, Q int        // physical qubits (coupled)
	Gate bool       // true: program gate; false: SWAP
	Tag  graph.Edge // the logical pair, for gates
}

// Cycle is the set of qubit-disjoint operations of one schedule cycle.
type Cycle []Op

// Result is a depth-optimal schedule.
type Result struct {
	Depth    int
	Cycles   []Cycle
	Explored int // nodes expanded, for diagnostics
	// Generated counts the distinct states stored by the search — the
	// closed-set size (states are deduplicated, so this is also its peak).
	Generated int
	// PeakOpen is the high-water mark of the open (frontier) heap.
	PeakOpen int
	// Elapsed is the wall-clock time of the search.
	Elapsed time.Duration
}

// Options bounds the search.
type Options struct {
	// MaxNodes aborts the search after expanding this many nodes.
	// 0 means the default budget of 2^22 expansions; a negative value
	// removes the budget entirely (unbounded search).
	MaxNodes int
	// Symmetry canonicalizes states under the architecture's coupling-graph
	// automorphisms (line reflection; grid flips and, for square grids,
	// diagonal reflections), merging mirror-image states in the closed set.
	// Symmetric states have identical distance-to-goal, so the optimal depth
	// is unchanged; the extracted schedule is mapped back to the original
	// frame. Architectures without a registered symmetry group are searched
	// unchanged.
	Symmetry bool
	// Trace, when non-nil, records a "solver.astar" span plus the
	// solver.explored counter and solver.open_set / solver.closed_set
	// gauges (sampled every interruptStride expansions). Nil costs a
	// single pointer check per observation.
	Trace *obs.Trace
}

// ErrSearchExhausted is returned (wrapped with the explored count and the
// open/closed set sizes) when MaxNodes is hit before a terminal.
var ErrSearchExhausted = errors.New("solver: node budget exhausted")

// ErrInterrupted is returned when the search is abandoned because its
// context was canceled or its deadline passed; it wraps the context's
// error, so errors.Is(err, context.DeadlineExceeded) sees through it.
var ErrInterrupted = errors.New("solver: search interrupted")

const maxEdges = 64

// maxLogical bounds the logical qubit count so occupants fit the int8 state
// encoding shared by both engines.
const maxLogical = 127

// interruptStride is how many node expansions pass between context polls:
// cheap enough to bound overrun to a few milliseconds, coarse enough to
// keep ctx.Err out of the expansion hot path.
const interruptStride = 1024

// Solve returns a depth-optimal schedule for problem on a from the initial
// mapping (identity if nil). The problem must have at most 64 edges.
func Solve(a *arch.Arch, problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	return SolveContext(context.Background(), a, problem, initial, opts)
}

// resolveMaxNodes maps the Options.MaxNodes encoding (0 = default budget,
// negative = unbounded) to an effective expansion limit.
func resolveMaxNodes(v int) int {
	switch {
	case v == 0:
		return 1 << 22
	case v < 0:
		return math.MaxInt
	default:
		return v
	}
}

// startMapping validates the instance and returns the packed initial
// physical→logical assignment (-1 = empty seat), shared by both engines.
func startMapping(a *arch.Arch, problem *graph.Graph, edges []graph.Edge, initial []int) ([]int8, error) {
	if len(edges) > maxEdges {
		return nil, fmt.Errorf("solver: %d edges exceed the %d-edge limit", len(edges), maxEdges)
	}
	if problem.N() > a.N() {
		return nil, fmt.Errorf("solver: %d logical qubits exceed %d physical", problem.N(), a.N())
	}
	if problem.N() > maxLogical {
		return nil, fmt.Errorf("solver: %d logical qubits exceed the %d-qubit limit", problem.N(), maxLogical)
	}
	start := make([]int8, a.N())
	for i := range start {
		start[i] = -1
	}
	if initial == nil {
		for l := 0; l < problem.N(); l++ {
			start[l] = int8(l)
		}
		return start, nil
	}
	if len(initial) != problem.N() {
		return nil, fmt.Errorf("solver: initial mapping length %d != %d", len(initial), problem.N())
	}
	for l, p := range initial {
		if p < 0 || p >= a.N() || start[p] != -1 {
			return nil, fmt.Errorf("solver: bad initial mapping %d->%d", l, p)
		}
		start[p] = int8(l)
	}
	return start, nil
}

// SolveContext is Solve honoring a context: the expansion loop polls
// ctx every interruptStride nodes and abandons the search with an
// ErrInterrupted-wrapped error on cancellation or deadline expiry.
func SolveContext(ctx context.Context, a *arch.Arch, problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	// Elapsed is timed against the trace's injected clock (SystemClock when
	// untraced) so governed tests can run the solver under synthetic time.
	clock := obs.ClockOf(opts.Trace)
	t0 := clock.Now()
	edges := problem.Edges()
	if len(edges) == 0 {
		return &Result{}, nil
	}
	start, err := startMapping(a, problem, edges, initial)
	if err != nil {
		return nil, err
	}
	maxNodes := resolveMaxNodes(opts.MaxNodes)

	e := newEngine(a, problem, edges, opts.Symmetry)
	defer e.release()
	e.addRoot(start)

	// Metric handles resolve once before the expansion loop; with a nil
	// trace every handle is nil and each observation is one pointer check.
	met := opts.Trace.Metrics()
	mExplored := met.Counter("solver.explored")
	gOpen := met.Gauge("solver.open_set")
	gClosed := met.Gauge("solver.closed_set")
	sp := opts.Trace.StartSpan(nil, "solver.astar",
		obs.Int("qubits", a.N()),
		obs.Int("edges", len(edges)),
		obs.Int("max_nodes", opts.MaxNodes))

	explored := 0
	defer func() {
		gOpen.Set(int64(len(e.heap)))
		gClosed.Set(int64(e.nodes()))
		sp.SetAttrs(obs.Int("explored", explored))
		sp.End()
	}()
	for len(e.heap) > 0 {
		cur := e.heapPop()
		if e.remOf(cur) == 0 {
			sp.SetAttrs(obs.Int("depth", int(e.g[cur])))
			return &Result{
				Depth:     int(e.g[cur]),
				Cycles:    e.extract(cur),
				Explored:  explored,
				Generated: e.nodes(),
				PeakOpen:  e.peakOpen,
				Elapsed:   clock.Now().Sub(t0),
			}, nil
		}
		explored++
		mExplored.Add(1)
		if explored > maxNodes {
			return nil, fmt.Errorf("%w after %d nodes (open %d, closed %d)",
				ErrSearchExhausted, explored, len(e.heap), e.nodes())
		}
		if explored%interruptStride == 0 {
			gOpen.Set(int64(len(e.heap)))
			gClosed.Set(int64(e.nodes()))
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w after %d nodes: %w", ErrInterrupted, explored, err)
			}
		}
		e.expand(cur)
	}
	return nil, errors.New("solver: no terminal reachable (disconnected problem?)")
}
