// Package core implements the paper's primary contribution: the hybrid
// compiler framework of §5–6 that takes the best of the greedy heuristic
// and the structured all-to-all (ATA) solution.
//
// The framework runs the greedy scheduler (internal/greedy) and, at
// checkpoints where the qubit mapping changed, predicts the cost of
// finishing the rest of the circuit by following the ATA pattern restricted
// to the detected interaction regions (§6.3 range detection). When all
// gates are processed, the compiled-circuit selector (§6.4) compares the
// pure-greedy circuit against every recorded greedy-prefix + ATA-suffix
// hybrid — including the prefix-0 candidate, which is the pure ATA solution
// — and materialises the one with the best cost F. Since the pure ATA
// candidate is always in the pool, the output is never worse than the
// structured clique-derived solution (Theorem 6.1), giving the linear
// worst-case depth bound, while sparse inputs benefit from the greedy
// prefix.
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/swapnet"
	"github.com/ata-pattern/ataqc/internal/telemetry"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// Options configures the hybrid compiler.
type Options struct {
	// Noise enables error-variability-aware scheduling and fidelity terms.
	Noise *noise.Model
	// CrosstalkAware adds crosstalk edges to the greedy conflict graph.
	CrosstalkAware bool
	// Angle is recorded on program gates (default 1; QAOA rebinds angles).
	Angle float64
	// Alpha weights depth against fidelity in the selector cost
	// F = alpha*(fD/oD) + (1-alpha)*(fidelity term); default 0.5 (§6.4).
	Alpha float64
	// MaxPredictions caps how many greedy checkpoints are evaluated with an
	// ATA prediction (the paper predicts at every mapping change; we
	// decimate evenly for scalability). Default 48.
	MaxPredictions int
	// Mode selects the compilation strategy; ModeHybrid is the paper's.
	Mode Mode
	// InitialMapping overrides the default compact placement.
	InitialMapping []int
	// Verify additionally runs the warning-severity lint analyzers
	// (internal/verify) and records every diagnostic on the Result. The
	// error-severity analyzers always run: Compile refuses to return a
	// circuit that fails them.
	Verify bool
	// Deadline is a wall-clock budget for the whole compilation, measured
	// from the CompileContext call (0 = unbounded). It combines with any
	// context deadline: the earlier of the two wins. When it expires
	// mid-compile the compiler degrades down the ladder (hybrid → best
	// candidate so far → pure ATA) instead of failing; see Result.Degraded.
	Deadline time.Duration
	// MaxNodes is a work budget (0 = unbounded): greedy scheduler cycles
	// plus predicted ATA pattern cycles. Exhaustion degrades exactly like a
	// deadline. It is the deterministic twin of Deadline — useful in tests
	// and anywhere wall-clock budgets would flake.
	MaxNodes int
	// Workers sets the fan-out of the hybrid prediction pool: each greedy
	// checkpoint's ATA prediction is independent, so they run on Workers
	// goroutines sharing the compile's pattern cache. 0 defaults to
	// runtime.GOMAXPROCS(0); 1 is a pool of one worker. The compiled
	// circuit, Stats (except Elapsed and the cache hit/miss split), and
	// selected candidate are byte-identical for every worker count when the
	// budget is unbounded — workers only change wall-clock. Under an
	// exhausting budget the pool truncates the candidate set it evaluated
	// (the degradation ladder is preserved; with more than one worker,
	// which candidates were scored before exhaustion is timing-dependent).
	Workers int
	// Trace, when non-nil, records the compile timeline (phase spans,
	// per-checkpoint prediction tasks, cache and pool metrics) on the given
	// trace. Nil disables tracing: every instrumentation point is a single
	// pointer check, so the disabled path costs ~nothing (the overhead guard
	// in core_obs_test.go holds it under 2%). Tracing never changes the
	// compiled circuit. The trace's clock also drives the wall-clock budget
	// and Stats.Elapsed, so tests can compile under a synthetic clock.
	Trace *obs.Trace
	// PatternCache, when non-nil, is a pattern cache shared across
	// compilations (typically owned by a core.Cache): the prediction loop,
	// materialisation, and pure-ATA replay all consult it instead of a
	// per-compile cache. Sharing is output-safe — it holds only region
	// geometry, which depends on nothing but the device and the region —
	// so the compiled circuit is byte-identical with or without it. Nil
	// makes CompileContext build a private per-compile cache.
	PatternCache *swapnet.PatternCache
}

// applyDefaults resolves the zero-value options to their documented
// defaults. CompileContext applies it on entry; CompileCached applies it
// before digesting the options into the cache key, so the key reflects
// the values the compiler will actually run with.
func (o *Options) applyDefaults() {
	if o.Angle == 0 {
		o.Angle = 1
	}
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.MaxPredictions == 0 {
		o.MaxPredictions = 48
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Mode selects between the full hybrid framework and its ablations.
type Mode int

const (
	// ModeHybrid is the full framework (greedy + ATA prediction + selector).
	ModeHybrid Mode = iota
	// ModeGreedy is the pure greedy heuristic (the "greedy" bar of Fig 17).
	ModeGreedy
	// ModeATA follows the structured solution exactly, skipping absent
	// gates (the "solver"-guided bar of Fig 17).
	ModeATA
)

func (m Mode) String() string {
	switch m {
	case ModeGreedy:
		return "greedy"
	case ModeATA:
		return "ata"
	default:
		return "hybrid"
	}
}

// Metrics summarises a compiled circuit with the paper's evaluation
// measures (§7.1).
type Metrics struct {
	Depth         int     // critical path after CX + 1q decomposition
	TwoQubitDepth int     // critical path counting only 2q gates
	CXCount       int     // total CX after decomposition
	ProgramGates  int     // ZZ (+ZZSwap) program gates scheduled
	Swaps         int     // SWAP gates inserted (ZZSwap counts as both)
	LogFidelity   float64 // noise-model estimate (0 when no model)
	CompileTime   time.Duration
}

// Stats records resource-governance observability for one compilation.
type Stats struct {
	// Elapsed is the wall-clock compile time.
	Elapsed time.Duration
	// WorkUnits is the governed work spent: greedy scheduler cycles plus
	// predicted ATA pattern cycles — the currency Options.MaxNodes caps. A
	// prediction cut once its checkpoint had lost charges the cycles it
	// simulated up to the cut.
	WorkUnits int64
	// Checkpoints counts the selector candidates recorded (including the
	// synthetic prefix-0 pure-ATA candidate); Predictions counts how many
	// were scored before the budget intervened, cut ones included. Both
	// are zero outside ModeHybrid.
	Checkpoints int
	Predictions int
	// SelectedPrefix is the greedy-gate prefix length of the winning hybrid
	// candidate (0 = the pure-ATA candidate); -1 when pure greedy won or
	// the mode ran no selector. It identifies the selected checkpoint, so
	// determinism tests can pin the selection, not just the output bytes.
	SelectedPrefix int
	// CacheTier reports which compilation-cache tier served this result
	// ("mem" or "disk"); empty for a fresh compile or when no compilation
	// cache was consulted. Only CompileCached sets it.
	CacheTier string
}

// Result is a compiled circuit plus provenance.
type Result struct {
	Circuit *circuit.Circuit
	Initial []int
	// Final is the final logical-to-physical mapping the compiler claims;
	// the perm-soundness analyzer refolds the SWAPs to confirm it.
	Final []int
	// Source describes which candidate won: "greedy", "ata", or
	// "hybrid@<prefix>" for a greedy-prefix + ATA-suffix circuit.
	Source  string
	Metrics Metrics
	// Diagnostics holds the full analyzer output (including warnings such
	// as dead-swap lints) when Options.Verify was set.
	Diagnostics []verify.Diagnostic
	// Degraded reports that a resource budget ran out mid-compile and the
	// compiler fell down the degradation ladder instead of failing. The
	// circuit is still complete and verifier-clean — the ladder's floor is
	// the pure ATA solution, whose linear depth Theorem 6.1 guarantees —
	// just not the candidate an unbounded search would have picked.
	Degraded bool
	// DegradeReason says which budget ran out and which rung answered —
	// structured (trigger values, checkpoint index), with String() rendering
	// the human-readable form.
	DegradeReason DegradeReason
	// Stats is the governance accounting for this compilation.
	Stats Stats
	// Timeline is the compact phase breakdown (always collected; see the
	// type's doc).
	Timeline Timeline
}

// Compile schedules every edge of problem onto a.
func Compile(a *arch.Arch, problem *graph.Graph, opts Options) (*Result, error) {
	return CompileContext(context.Background(), a, problem, opts)
}

// CompileContext is Compile under resource governance: it honors the
// context's cancellation and deadline plus the Options.Deadline/MaxNodes
// budgets, polling them in the greedy scheduler loop and the hybrid
// prediction loop. When a wall-clock or work budget runs out mid-compile
// the result degrades down a ladder — hybrid → best candidate recorded so
// far → pure ATA (deterministic, O(n), always constructible on structured
// architectures) — and reports it via Result.Degraded; Theorem 6.1 is
// exactly this contract: the output is never worse than the linear-depth
// structured solution. Explicit context *cancellation* is different: the
// caller has abandoned the compile, so it returns the context error.
//
// CompileContext is also a panic boundary: an internal invariant violation
// anywhere below surfaces as an ErrInternal-wrapped error (with the panic
// value and stack) instead of unwinding into the caller.
func CompileContext(ctx context.Context, a *arch.Arch, problem *graph.Graph, opts Options) (res *Result, err error) {
	rec := newRecorder(opts.Trace)
	// One clock read at the governance boundary: the budget's deadline
	// checks, Stats.Elapsed, and Metrics.CompileTime all derive from this
	// same clock and origin, so they can never disagree.
	start := rec.clock.Now()
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("%w: panic: %v\n%s", ErrInternal, r, debug.Stack())
		}
	}()
	opts.applyDefaults()
	// One pattern cache serves every ATA path of the compile: prediction,
	// materialisation, ModeATA, and the pure-ATA degradation floor.
	if opts.PatternCache == nil {
		opts.PatternCache = swapnet.NewPatternCache(0)
	}
	rootAttrs := []obs.Attr{
		obs.Str("mode", opts.Mode.String()),
		obs.Int("qubits", a.N()),
		obs.Int("edges", problem.M()),
		obs.Int("workers", opts.Workers),
	}
	// When the serving layer admitted this compile, its request trace ID
	// rides the context; stamping it on the root span ties the compile's
	// whole span tree to the daemon's logs and flight-recorder entry.
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		rootAttrs = append(rootAttrs, obs.Str("trace_id", string(id)))
	}
	rec.root = rec.tr.StartSpan(nil, "compile", rootAttrs...)
	defer rec.root.End()
	bud := newBudget(ctx, start, opts, rec.clock)
	initial := opts.InitialMapping
	if initial != nil {
		// User-supplied mappings are an input boundary: reject them with a
		// typed error instead of letting the builder panic downstream. The
		// checks run before the place phase opens so the early returns
		// cannot leak its span.
		if len(initial) != problem.N() {
			return nil, fmt.Errorf("core: initial mapping covers %d logical qubits, problem has %d", len(initial), problem.N())
		}
		if verr := swapnet.ValidateMapping(a, initial); verr != nil {
			return nil, fmt.Errorf("core: invalid initial mapping: %w", verr)
		}
	}
	place := rec.phase("place")
	if initial == nil {
		initial = greedy.InitialMapping(a, problem)
		initial = greedy.RefinePlacement(a, problem, initial, refinePasses(problem.N()))
	}
	place.end()
	if opts.Mode != ModeGreedy && !swapnet.HasATA(a) {
		return nil, fmt.Errorf("core: architecture %s has no structured pattern; use ModeGreedy", a.Name)
	}

	switch opts.Mode {
	case ModeGreedy:
		obs.PhaseLabel(ctx, "greedy", func(context.Context) {
			res, err = compileGreedy(a, problem, initial, opts, bud, rec)
		})
		if err != nil && degradable(err) && swapnet.HasATA(a) {
			cause := fmt.Errorf("greedy scheduling aborted: %w", err)
			res, err = degradeToATA(a, problem, initial, opts,
				degradeReasonFor("pure-ata", cause, -1, 0, bud, opts, rec), rec)
		}
	case ModeATA:
		// The floor of the ladder: O(n) pattern replay, never governed.
		obs.PhaseLabel(ctx, "ata", func(context.Context) {
			res, err = compileATA(a, problem, initial, opts, rec)
		})
	default:
		res, err = compileHybrid(a, problem, initial, opts, bud, rec)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.WorkUnits = bud.spent()
	rec.tr.Metrics().Gauge("budget.work_units").Set(res.Stats.WorkUnits)
	vp := rec.phase("verify")
	vErr := checkResult(res, a, problem, &opts)
	vp.end()
	if vErr != nil {
		return nil, fmt.Errorf("core: produced invalid circuit: %w", vErr)
	}
	rec.root.SetAttrs(obs.Str("source", res.Source), obs.Int("depth", res.Metrics.Depth))
	elapsed := rec.clock.Now().Sub(start)
	res.Metrics.CompileTime = elapsed
	res.Stats.Elapsed = elapsed
	rec.tl.Winner = res.Source
	res.Timeline = rec.tl
	return res, nil
}

// interruptOf adapts the budget into the greedy scheduler's Interrupt hook,
// charging one work unit per scheduler cycle. An unbounded budget never
// trips, so the ungoverned output stays byte-identical to the pre-
// governance compiler; the poll itself is a handful of comparisons per
// scheduler cycle and keeps Stats.WorkUnits truthful either way.
func interruptOf(bud *budget) func() error {
	return func() error { return bud.spend(1) }
}

// degradeToATA is the bottom rung of the degradation ladder: replay the
// structured all-to-all pattern from the initial placement. It is
// deterministic and O(n), so it always completes no matter how exhausted
// the budget is, and Theorem 6.1 bounds its depth linearly.
func degradeToATA(a *arch.Arch, problem *graph.Graph, initial []int, opts Options, reason DegradeReason, rec *recorder) (*Result, error) {
	res, err := compileATA(a, problem, initial, opts, rec)
	if err != nil {
		return nil, fmt.Errorf("core: ATA fallback failed (%v) after budget exhaustion: %s", err, reason.Cause)
	}
	res.Degraded = true
	res.DegradeReason = reason
	return res, nil
}

// refinePasses bounds the placement hill-climb for an n-qubit problem:
// six passes for small problems, shrinking with size down to one, so that
// compile time stays near-linear at scale (Fig 26).
func refinePasses(n int) int { return min(max(2048/(n+1), 1), 6) }

// checkResult measures res.Circuit into res.Metrics and verifies it,
// for a fresh compile and a cache hit alike. The error-severity
// analyzers (verify.Strict) are the compiler's output contract: a
// circuit that fails them must not escape, and their findings come back
// as the error. Options.Verify widens the pass to the warning lints and
// records every finding on res.
func checkResult(res *Result, a *arch.Arch, problem *graph.Graph, opts *Options) error {
	res.Metrics = Measure(res.Circuit, opts.Noise)
	pass := &verify.Pass{
		Circuit:       res.Circuit,
		Arch:          a,
		Problem:       problem,
		Initial:       res.Initial,
		Final:         res.Final,
		ReportedDepth: res.Metrics.Depth,
		CheckDepth:    true,
		Angle:         opts.Angle,
	}
	analyzers := verify.Strict
	if opts.Verify {
		analyzers = verify.All
	}
	diags := verify.Run(pass, analyzers...)
	if opts.Verify {
		res.Diagnostics = diags
	}
	return verify.AsError(diags)
}

// Measure computes the evaluation metrics of a compiled circuit.
func Measure(c *circuit.Circuit, nm *noise.Model) Metrics {
	s := c.Summarize()
	m := Metrics{
		Depth:         s.Depth,
		TwoQubitDepth: s.TwoQubitDepth,
		CXCount:       s.CXCount,
		ProgramGates:  s.Counts[circuit.GateZZ] + s.Counts[circuit.GateZZSwap],
		Swaps:         s.Counts[circuit.GateSwap] + s.Counts[circuit.GateZZSwap],
	}
	if nm != nil {
		m.LogFidelity = nm.LogFidelityAt(c, s.Depth)
	}
	return m
}

func compileGreedy(a *arch.Arch, problem *graph.Graph, initial []int, opts Options, bud *budget, rec *recorder) (*Result, error) {
	ph := rec.phase("greedy")
	g, err := greedy.Compile(a, problem, initial, greedy.Options{
		Noise:          opts.Noise,
		CrosstalkAware: opts.CrosstalkAware,
		Angle:          opts.Angle,
		Interrupt:      interruptOf(bud),
		Obs:            rec.tr,
		ObsSpan:        ph.span,
	})
	ph.end()
	if err != nil {
		return nil, err
	}
	res := &Result{Circuit: g.Circuit, Initial: g.Initial, Final: g.Final, Source: "greedy"}
	res.Stats.SelectedPrefix = -1
	return res, nil
}

func compileATA(a *arch.Arch, problem *graph.Graph, initial []int, opts Options, rec *recorder) (*Result, error) {
	ph := rec.phase("ata")
	defer ph.end()
	b := circuit.NewBuilder(a, problem.N(), initial)
	st := swapnet.NewStateFromMapping(a, initial, swapnet.NewEdgeSet(problem))
	if err := runATARegions(st, b, opts.Angle, opts.PatternCache, rec.tr, ph.span); err != nil {
		return nil, err
	}
	res := &Result{Circuit: b.C, Initial: b.InitialMapping(), Final: b.CurrentMapping(), Source: "ata"}
	res.Stats.SelectedPrefix = -1
	return res, nil
}

// runATARegions detects the interaction regions of the remaining problem
// (§6.3) and runs the structured pattern inside each through the pattern
// cache c, appending to b. Each region's pattern build is wrapped in an
// "ata.region" span under parent (nil trace = no spans).
func runATARegions(st *swapnet.State, b *circuit.Builder, angle float64, c *swapnet.PatternCache, tr *obs.Trace, parent *obs.Span) error {
	for _, r := range detectRegions(st, new(regionBuf)) {
		if err := swapnet.ATATraced(st, r, builderEmit(b, angle), c, tr, parent); err != nil {
			return err
		}
	}
	if !st.Want.Empty() {
		// Regions are merged when overlapping, so this indicates a pattern
		// gap; fall back to one full-architecture pass.
		if err := swapnet.ATATraced(st, arch.FullRegion(st.A), builderEmit(b, angle), c, tr, parent); err != nil {
			return err
		}
	}
	if !st.Want.Empty() {
		return fmt.Errorf("core: ATA left %d gates unscheduled", st.Want.Len())
	}
	return nil
}

// builderEmit adapts swapnet steps onto a circuit builder. The builder's
// mapping stays in lockstep with the pattern state because both apply the
// same swaps in the same order.
func builderEmit(b *circuit.Builder, angle float64) swapnet.EmitFunc {
	return func(s swapnet.Step) {
		for _, g := range s.Compute {
			if g.Fused {
				b.ZZSwap(g.P, g.Q, angle, g.Tag)
			} else {
				b.ZZ(g.P, g.Q, angle, g.Tag)
			}
		}
		for _, layer := range s.Swaps {
			for _, e := range layer {
				b.Swap(e.U, e.V)
			}
		}
	}
}

// detectRegions finds the disjoint connected components of the remaining
// problem graph, maps each to its enclosing architecture region, and merges
// overlapping regions (§6.3, Fig 19). A union-find over the want edges
// gives the components; a counting sort then buckets the logical qubits
// that have a wanted edge by component root, so each component's physical
// qubits are one contiguous run, and one buffer holds it all. Regions are
// returned in a canonical sorted order: the emission order is observable
// (the snake fallback of a grid region can touch qubits outside the
// region), and the overlap merge below depends on the order it starts
// from.
//
// The returned regions live in rb, as do the buffers, so a caller that
// reuses rb allocates nothing once they have grown; the regions stay valid
// until rb's next use.
func detectRegions(st *swapnet.State, rb *regionBuf) []arch.Region {
	if st.Want.Empty() {
		return nil
	}
	n := len(st.L2P)
	buf := slices.Grow(rb.ints[:0], 4*n+1)[:4*n+1]
	rb.ints = buf
	size, end, phys := buf[n:2*n], buf[2*n:3*n+1], buf[3*n+1:]
	clear(end)
	var uf graph.UnionFind
	uf.Init(buf[:n], size)
	st.Want.Each(func(e graph.Edge) { uf.Union(e.U, e.V) })
	// A qubit has a wanted edge iff its set has another member. end[r+1]
	// first counts root r's qubits, then end[r] becomes the start of r's
	// bucket and, once the qubits are placed, its end.
	comps := 0
	for x := 0; x < n; x++ {
		if r := uf.Find(x); size[r] > 1 {
			if end[r+1] == 0 {
				comps++
			}
			end[r+1]++
		}
	}
	for r := 0; r < n; r++ {
		end[r+1] += end[r]
	}
	for x := 0; x < n; x++ {
		if r := uf.Find(x); size[r] > 1 {
			phys[end[r]] = st.L2P[x]
			end[r]++
		}
	}
	regions := slices.Grow(rb.regions[:0], comps)
	lo := 0
	for r := 0; r < n; r++ {
		if hi := end[r]; hi > lo {
			regions = append(regions, swapnet.NormalizeRegion(st.A, arch.EnclosingRegion(st.A, phys[lo:hi])))
			lo = hi
		}
	}
	sortRegions(regions)
	// Merge overlaps to a fixpoint.
	for {
		merged := false
		for i := 0; i < len(regions) && !merged; i++ {
			for j := i + 1; j < len(regions); j++ {
				if regions[i].Overlaps(regions[j]) {
					regions[i] = swapnet.NormalizeRegion(st.A, regions[i].Union(regions[j]))
					regions = append(regions[:j], regions[j+1:]...)
					merged = true
					break
				}
			}
		}
		if !merged {
			sortRegions(regions)
			rb.regions = regions
			return regions
		}
	}
}

// regionBuf is detectRegions' memory: the union-find and bucket arrays and
// the region list.
type regionBuf struct {
	ints    []int
	regions []arch.Region
}

// sortRegions orders regions lexicographically over their coordinates —
// any total order works; this one keeps unit-space regions grouped before
// path-space ones.
func sortRegions(regions []arch.Region) {
	slices.SortFunc(regions, func(a, b arch.Region) int {
		if a.UsesPath != b.UsesPath {
			if a.UsesPath {
				return 1
			}
			return -1
		}
		return cmp.Or(cmp.Compare(a.U0, b.U0), cmp.Compare(a.U1, b.U1), cmp.Compare(a.P0, b.P0),
			cmp.Compare(a.P1, b.P1), cmp.Compare(a.I0, b.I0), cmp.Compare(a.I1, b.I1))
	})
}
