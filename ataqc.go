// Package ataqc is an architecture-regularity-aware compiler for quantum
// programs with permutable two-qubit operators (QAOA and 2-local
// Hamiltonian simulation), reproducing Jin et al., "Exploiting the Regular
// Structure of Modern Quantum Architectures for Compiling and Optimizing
// Programs with Permutable Operators" (ASPLOS 2023).
//
// The public API is small: build a Device (a coupling architecture,
// optionally with a noise calibration), a Problem (the interaction graph
// whose edges are the permutable gates), and Compile. The compiler combines
// a noise-aware greedy scheduler with structured all-to-all SWAP-network
// patterns derived from depth-optimal solutions of small sub-problems,
// guaranteeing linear worst-case depth while exploiting sparsity.
//
//	dev := ataqc.HeavyHexDevice(64)
//	prob := ataqc.RandomProblem(64, 0.3, 1)
//	res, err := ataqc.Compile(dev, prob, ataqc.Options{})
//	fmt.Println(res.Depth(), res.CXCount())
package ataqc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/baseline"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/qaoa"
	"github.com/ata-pattern/ataqc/internal/sim"
	"github.com/ata-pattern/ataqc/internal/solver"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// Device is a quantum architecture target, optionally calibrated with a
// noise model.
type Device struct {
	arch  *arch.Arch
	noise *noise.Model
}

// LineDevice returns a 1xN line architecture.
func LineDevice(n int) *Device { return &Device{arch: arch.Line(n)} }

// GridDevice returns a near-square 2D-grid architecture with >= n qubits.
func GridDevice(n int) *Device { return &Device{arch: arch.GridN(n)} }

// SycamoreDevice returns a near-square Google-Sycamore (rotated lattice)
// architecture with >= n qubits.
func SycamoreDevice(n int) *Device { return &Device{arch: arch.SycamoreN(n)} }

// HeavyHexDevice returns an IBM heavy-hex architecture with >= n qubits.
func HeavyHexDevice(n int) *Device { return &Device{arch: arch.HeavyHexN(n)} }

// HexagonDevice returns a honeycomb architecture with >= n qubits.
func HexagonDevice(n int) *Device { return &Device{arch: arch.HexagonN(n)} }

// MumbaiDevice returns the 27-qubit IBM Mumbai coupling map.
func MumbaiDevice() *Device { return &Device{arch: arch.Mumbai()} }

// NewDevice returns the named family's device (line, grid, sycamore,
// heavy-hex, hexagon or mumbai) sized for n qubits, as the constructors
// above do; an unknown family or n < 1 is an error.
func NewDevice(family string, n int) (*Device, error) {
	a, err := arch.ByFamily(family, n)
	if err != nil {
		return nil, err
	}
	return &Device{arch: a}, nil
}

// WithSyntheticNoise attaches a seeded synthetic calibration (IBM-like
// error-rate magnitudes and variability) and returns the device.
func (d *Device) WithSyntheticNoise(seed int64) *Device {
	d.noise = noise.Synthetic(d.arch, seed)
	return d
}

// Qubits returns the number of physical qubits.
func (d *Device) Qubits() int { return d.arch.N() }

// Name returns the device's identifier, e.g. "heavyhex-4x16".
func (d *Device) Name() string { return d.arch.Name }

// Render returns a coarse ASCII picture of the device layout.
func (d *Device) Render() string { return d.arch.Render() }

// Couplings returns the physical coupling pairs.
func (d *Device) Couplings() [][2]int {
	es := d.arch.G.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// Problem is an interaction graph: vertices are logical qubits, edges are
// the permutable two-qubit operators (QAOA cost terms or 2-local
// Hamiltonian couplings).
type Problem struct {
	g *graph.Graph
}

// NewProblem returns an empty problem over n logical qubits.
func NewProblem(n int) *Problem { return &Problem{g: graph.New(n)} }

// AddInteraction declares a two-qubit operator between logical qubits u, v.
func (p *Problem) AddInteraction(u, v int) { p.g.AddEdge(u, v) }

// Qubits returns the number of logical qubits.
func (p *Problem) Qubits() int { return p.g.N() }

// Interactions returns the number of two-qubit operators.
func (p *Problem) Interactions() int { return p.g.M() }

// Density returns 2m/(n(n-1)), the fraction of all-to-all interactions
// present (0 below two qubits).
func (p *Problem) Density() float64 { return p.g.Density() }

// InteractionList returns every two-qubit operator as a canonical (u < v)
// pair, sorted.
func (p *Problem) InteractionList() [][2]int {
	es := p.g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// RandomProblem returns a connected Erdős–Rényi G(n, density) problem.
func RandomProblem(n int, density float64, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	return &Problem{g: graph.GnpConnected(n, density, rng)}
}

// MaxProblemQubits caps the vertex ids ParseProblem accepts: the problem
// spans vertices 0..max(id), so a single adversarial line ("0 1000000000")
// would otherwise allocate a billion-vertex graph before any compile
// sanity check runs.
const MaxProblemQubits = 1 << 20

// ParseProblem reads an interaction graph from an edge-list stream: one
// "u v" pair per line (0-based vertex ids); blank lines and lines starting
// with '#' are ignored. The problem spans vertices 0..max(id), capped at
// MaxProblemQubits.
func ParseProblem(r io.Reader) (*Problem, error) {
	var edges [][2]int
	maxV := -1
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var u, v int
		if _, err := fmt.Sscanf(text, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("ataqc: line %d: %q is not an edge", line, text)
		}
		if u < 0 || v < 0 || u == v {
			return nil, fmt.Errorf("ataqc: line %d: invalid edge (%d,%d)", line, u, v)
		}
		if u >= MaxProblemQubits || v >= MaxProblemQubits {
			return nil, fmt.Errorf("ataqc: line %d: vertex id exceeds the %d-qubit limit", line, MaxProblemQubits)
		}
		edges = append(edges, [2]int{u, v})
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxV < 0 {
		return nil, fmt.Errorf("ataqc: empty problem")
	}
	p := NewProblem(maxV + 1)
	for _, e := range edges {
		p.AddInteraction(e[0], e[1])
	}
	return p, nil
}

// LoadProblem reads an edge-list file (see ParseProblem).
func LoadProblem(path string) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ParseProblem(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// RegularProblem returns a random regular problem with density close to the
// target.
func RegularProblem(n int, density float64, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RegularByDensity(n, density, rng)
	if err != nil {
		return nil, err
	}
	return &Problem{g: g}, nil
}

// Strategy selects the compilation algorithm.
type Strategy string

const (
	// StrategyHybrid is the paper's full framework: greedy scheduling with
	// structured-pattern prediction and the compiled-circuit selector.
	StrategyHybrid Strategy = "hybrid"
	// StrategyGreedy is the pure greedy heuristic.
	StrategyGreedy Strategy = "greedy"
	// StrategyATA follows the structured all-to-all solution exactly,
	// skipping gates absent from the problem.
	StrategyATA Strategy = "ata"
	// Strategy2QAN, StrategyQAIM and StrategyPaulihedral are the baseline
	// reimplementations, exposed for comparison studies.
	Strategy2QAN        Strategy = "2qan"
	StrategyQAIM        Strategy = "qaim"
	StrategyPaulihedral Strategy = "paulihedral"
)

// Options configures Compile.
type Options struct {
	// Strategy defaults to StrategyHybrid.
	Strategy Strategy
	// NoiseAware uses the device's calibration for SWAP placement and the
	// selector's fidelity term (requires WithSyntheticNoise or a custom
	// model).
	NoiseAware bool
	// CrosstalkAware avoids scheduling close parallel gates together.
	CrosstalkAware bool
	// Alpha weighs depth vs fidelity in the circuit selector (default 0.5).
	Alpha float64
	// Angle is recorded on every program gate (default 1).
	Angle float64
	// Deadline is a wall-clock budget for the compilation (0 = unbounded).
	// When it expires mid-compile under the hybrid/greedy/ata strategies,
	// the compiler degrades to the structured ATA solution instead of
	// failing (Theorem 6.1's linear-depth floor); Result.Degraded reports
	// it. Baseline strategies (2qan, qaim, paulihedral) are not governed.
	Deadline time.Duration
	// MaxNodes is a deterministic work budget (0 = unbounded): greedy
	// scheduler cycles plus predicted ATA pattern cycles. Exhaustion
	// degrades exactly like a deadline.
	MaxNodes int
	// Workers sets the fan-out of the hybrid strategy's prediction pool
	// (0 = runtime.GOMAXPROCS(0), 1 = one worker). The compiled circuit is
	// identical for every worker count under an unbounded budget; workers
	// only change compile time.
	Workers int
	// Trace, when non-nil, records the compile's execution timeline and
	// metrics (see NewTrace). Nil disables tracing at ~zero cost and is the
	// default. Tracing never changes the compiled circuit.
	Trace *Trace
	// Cache, when non-nil, consults and feeds a compilation cache (see
	// OpenCache / MemoryCache) under the hybrid/greedy/ata strategies.
	// Caching never changes the compiled circuit: a hit is byte-for-byte
	// the result a fresh compile would produce (isomorphic problems get
	// the same circuit relabeled for their vertices) and is re-verified
	// before it is served. Baseline strategies ignore it.
	Cache *Cache
}

// Result is a compiled circuit with its measurements.
type Result struct {
	dev           *Device
	problem       *Problem
	circuit       *circuit.Circuit
	initial       []int
	final         []int
	metrics       core.Metrics
	strategy      Strategy
	angle         float64
	cacheTier     string
	degraded      bool
	degradeReason core.DegradeReason
	timeline      core.Timeline
}

// Compile schedules every interaction of the problem onto the device.
func Compile(dev *Device, p *Problem, opts Options) (*Result, error) {
	return CompileContext(context.Background(), dev, p, opts)
}

// CompileContext is Compile under resource governance: it honors the
// context's cancellation and deadline plus Options.Deadline/MaxNodes. When
// a budget runs out mid-compile the compiler degrades gracefully — the
// output falls back toward the structured all-to-all solution, which is
// deterministic, linear-depth (Theorem 6.1), and always constructible —
// and Result.Degraded reports what happened. Explicit cancellation aborts
// with the context's error instead. Internal compiler panics are converted
// into errors at this boundary; they never unwind into the caller.
func CompileContext(ctx context.Context, dev *Device, p *Problem, opts Options) (*Result, error) {
	if p.Qubits() > dev.Qubits() {
		return nil, fmt.Errorf("ataqc: problem needs %d qubits but device %s has %d",
			p.Qubits(), dev.Name(), dev.Qubits())
	}
	strategy := opts.Strategy
	if strategy == "" {
		strategy = StrategyHybrid
	}
	var nm *noise.Model
	if opts.NoiseAware {
		if dev.noise == nil {
			return nil, fmt.Errorf("ataqc: NoiseAware requires a device calibration (WithSyntheticNoise)")
		}
		nm = dev.noise
	}
	res := &Result{dev: dev, problem: p, strategy: strategy, angle: opts.Angle}
	if res.angle == 0 {
		// Every compiler (core modes and baselines) records angle 1 on its
		// program gates when none is given; remember the effective value so
		// Lint's sema analyzer pins terms to what was actually emitted.
		res.angle = 1
	}
	switch strategy {
	case StrategyHybrid, StrategyGreedy, StrategyATA:
		mode := core.ModeHybrid
		if strategy == StrategyGreedy {
			mode = core.ModeGreedy
		}
		if strategy == StrategyATA {
			mode = core.ModeATA
		}
		copts := core.Options{
			Mode:           mode,
			Noise:          nm,
			CrosstalkAware: opts.CrosstalkAware,
			Alpha:          opts.Alpha,
			Angle:          opts.Angle,
			Deadline:       opts.Deadline,
			MaxNodes:       opts.MaxNodes,
			Workers:        opts.Workers,
			Trace:          opts.Trace.inner(),
		}
		var inner *core.Cache
		if opts.Cache != nil {
			inner = opts.Cache.inner
		}
		r, err := core.CompileCached(ctx, dev.arch, p.g, copts, inner)
		if err != nil {
			return nil, err
		}
		res.circuit, res.initial, res.final, res.metrics = r.Circuit, r.Initial, r.Final, r.Metrics
		res.degraded, res.degradeReason = r.Degraded, r.DegradeReason
		res.timeline = r.Timeline
		res.cacheTier = r.Stats.CacheTier
	case Strategy2QAN, StrategyQAIM, StrategyPaulihedral:
		var (
			b   *baseline.Result
			err error
		)
		switch strategy {
		case Strategy2QAN:
			b, err = baseline.TwoQAN(dev.arch, p.g, opts.Angle)
		case StrategyQAIM:
			b, err = baseline.QAIM(dev.arch, p.g, opts.Angle)
		default:
			b, err = baseline.Paulihedral(dev.arch, p.g, opts.Angle)
		}
		if err != nil {
			return nil, err
		}
		res.circuit, res.initial, res.final = b.Circuit, b.Initial, b.Final
		res.metrics = core.Measure(b.Circuit, nm)
	default:
		return nil, fmt.Errorf("ataqc: unknown strategy %q", strategy)
	}
	return res, nil
}

// Degraded reports that a resource budget (context deadline,
// Options.Deadline, or Options.MaxNodes) ran out mid-compile and the
// compiler fell back toward the structured ATA solution. The circuit is
// complete and passes every error-severity verifier analyzer; it is just
// not the candidate an unbounded search would have picked.
func (r *Result) Degraded() bool { return r.degraded }

// DegradeReason describes which budget ran out and which fallback rung
// produced the circuit ("" when not degraded). DegradeDetail exposes the
// same breadcrumb structured.
func (r *Result) DegradeReason() string { return r.degradeReason.String() }

// CacheTier reports which compilation-cache tier served this result:
// "mem", "disk", or "" for a fresh (uncached or cache-miss) compile.
func (r *Result) CacheTier() string { return r.cacheTier }

// Depth returns the compiled circuit's critical-path length after
// decomposition into CX and single-qubit gates.
func (r *Result) Depth() int { return r.metrics.Depth }

// CXCount returns the total CX count after decomposition.
func (r *Result) CXCount() int { return r.metrics.CXCount }

// SwapCount returns the number of SWAPs inserted (unified gate+SWAPs count).
func (r *Result) SwapCount() int { return r.metrics.Swaps }

// EstimatedFidelity returns exp(log-fidelity) under the device calibration,
// or 1 when the compilation was not noise-aware.
func (r *Result) EstimatedFidelity() float64 {
	return math.Exp(r.metrics.LogFidelity)
}

// InitialMapping returns where each logical qubit starts on the device.
func (r *Result) InitialMapping() []int {
	out := make([]int, len(r.initial))
	copy(out, r.initial)
	return out
}

// FinalMapping returns where each logical qubit ends up. The compilers
// track this as they build (and the perm-soundness analyzer confirms it
// against the circuit's SWAPs); replaying is only a fallback.
func (r *Result) FinalMapping() []int {
	if r.final != nil {
		out := make([]int, len(r.final))
		copy(out, r.final)
		return out
	}
	return circuit.FinalMapping(r.circuit, r.initial)
}

// Diagnostic is one finding from the static circuit verifier: a named
// analyzer, a severity, the offending gate's index in the compiled stream
// (-1 for circuit-level findings), the gate's operands, and a
// human-readable message. Its JSON form is one `ataqc lint -json` line.
type Diagnostic struct {
	Analyzer string `json:"analyzer"` // e.g. "arch-conformance", "sema", "dead-swap"
	Severity string `json:"severity"` // "error" or "warning"
	Gate     int    `json:"gate"`     // gate index; -1 = whole-circuit finding
	// Kind is the offending gate's mnemonic ("zz", "swap", ...); empty for
	// circuit-level findings.
	Kind string `json:"kind,omitempty"`
	// Q0, Q1 are the gate's physical operands (Q1 = -1 for 1q gates; both
	// -1 for circuit-level findings).
	Q0 int `json:"q0"`
	Q1 int `json:"q1"`
	// L0, L1 are the logical qubits resident on Q0/Q1 when the gate
	// executes (-1 when unknown).
	L0      int    `json:"l0"`
	L1      int    `json:"l1"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	v := verify.Diagnostic{
		Analyzer: d.Analyzer,
		Gate:     d.Gate,
		Kind:     d.Kind,
		Q0:       d.Q0, Q1: d.Q1,
		L0: d.L0, L1: d.L1,
		Message: d.Message,
	}
	if d.Severity == "warning" {
		v.Severity = verify.SeverityWarning
	}
	return v.String()
}

// AnalyzerStatus reports whether one analyzer actually ran during Lint.
// A skipped analyzer proves nothing about its invariant, so CI that diffs
// lint output should also diff the status list.
type AnalyzerStatus struct {
	Analyzer string `json:"analyzer"`         // analyzer name
	Skipped  bool   `json:"skipped"`          // true when required context was missing
	Reason   string `json:"reason,omitempty"` // which context was missing ("" when it ran)
}

// Lint runs every verification analyzer over the compiled circuit: coupling
// conformance, permutation soundness, interaction coverage, phase-polynomial
// semantic equivalence, depth consistency, and dead-SWAP detection. Compile
// already enforces the error-severity analyzers on every result, so a
// successful compilation can only yield warning-severity findings here.
func (r *Result) Lint() []Diagnostic {
	diags, _ := r.LintStatus()
	return diags
}

// LintStatus is Lint plus per-analyzer accounting: the second return lists
// every analyzer with a skipped marker for those whose required context was
// missing.
func (r *Result) LintStatus() ([]Diagnostic, []AnalyzerStatus) {
	pass := &verify.Pass{
		Circuit:       r.circuit,
		Arch:          r.dev.arch,
		Problem:       r.problem.g,
		Initial:       r.initial,
		Final:         r.final,
		ReportedDepth: r.metrics.Depth,
		CheckDepth:    true,
		Angle:         r.angle,
	}
	diags, statuses := verify.RunStatus(pass, verify.All...)
	var out []Diagnostic
	for _, d := range diags {
		out = append(out, Diagnostic{
			Analyzer: d.Analyzer,
			Severity: d.Severity.String(),
			Gate:     d.Gate,
			Kind:     d.Kind,
			Q0:       d.Q0, Q1: d.Q1,
			L0: d.L0, L1: d.L1,
			Message: d.Message,
		})
	}
	sts := make([]AnalyzerStatus, len(statuses))
	for i, s := range statuses {
		sts[i] = AnalyzerStatus{Analyzer: s.Name, Skipped: s.Skipped, Reason: s.Reason}
	}
	return out, sts
}

// WriteQASM emits the compiled circuit as OpenQASM 2.0.
func (r *Result) WriteQASM(w io.Writer) error { return r.circuit.WriteQASM(w) }

// WriteSchedule prints the compiled circuit cycle by cycle: one line per
// ASAP layer listing the operations scheduled in it.
func (r *Result) WriteSchedule(w io.Writer) error {
	for li, layer := range r.circuit.Layers() {
		if _, err := fmt.Fprintf(w, "cycle %3d:", li); err != nil {
			return err
		}
		for _, gi := range layer {
			g := r.circuit.Gates[gi]
			var err error
			switch g.Kind {
			case circuit.GateZZ:
				_, err = fmt.Fprintf(w, "  zz%v@(%d,%d)", g.Tag, g.Q0, g.Q1)
			case circuit.GateZZSwap:
				_, err = fmt.Fprintf(w, "  zzswap%v@(%d,%d)", g.Tag, g.Q0, g.Q1)
			case circuit.GateSwap:
				_, err = fmt.Fprintf(w, "  swap(%d,%d)", g.Q0, g.Q1)
			default:
				_, err = fmt.Fprintf(w, "  %s(q%d)", g.Kind, g.Q0)
			}
			if err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrotterQASM emits a first-order Trotterised evolution exp(-iHt) of
// the compiled 2-local schedule as OpenQASM 2.0: `steps` repetitions at
// angle t/steps, alternating forward and reversed replays so the qubit
// mapping returns home after every even step (see internal/qaoa).
func (r *Result) WriteTrotterQASM(steps int, totalTime float64, w io.Writer) error {
	if steps < 1 {
		return fmt.Errorf("ataqc: steps must be positive")
	}
	c := r.instance().BuildTrotterized(steps, totalTime/float64(steps))
	return c.WriteQASM(w)
}

// QAOAExpectation returns the exact expected MaxCut value of the QAOA(p=1)
// circuit built from this compilation at angles (gamma, beta). The active
// part of the circuit must fit the simulator (<= 22 touched qubits).
func (r *Result) QAOAExpectation(gamma, beta float64) float64 {
	inst := r.instance()
	return inst.Expectation(gamma, beta)
}

// OptimizeQAOA runs Nelder–Mead over (gamma, beta) for maxEvals circuit
// evaluations and returns the best angles and the best expected cut.
func (r *Result) OptimizeQAOA(maxEvals int) (gamma, beta, expectedCut float64) {
	inst := r.instance()
	f := func(x []float64) float64 { return -inst.Expectation(x[0], x[1]) }
	best, trace := qaoa.NelderMead(f, []float64{-0.4, 0.3}, maxEvals)
	return best[0], best[1], -trace[len(trace)-1]
}

// SimulateDistribution returns the exact logical output distribution of the
// QAOA(p=1) circuit at (gamma, beta).
func (r *Result) SimulateDistribution(gamma, beta float64) []float64 {
	return r.instance().LogicalDistribution(gamma, beta)
}

// NoisyDistribution returns the trajectory-averaged distribution under the
// device calibration (including readout error).
func (r *Result) NoisyDistribution(gamma, beta float64, trajectories int, seed int64) ([]float64, error) {
	if r.dev.noise == nil {
		return nil, fmt.Errorf("ataqc: device has no noise calibration")
	}
	rng := rand.New(rand.NewSource(seed))
	return r.instance().NoisyLogicalDistribution(gamma, beta, r.dev.noise,
		sim.NoisyOptions{Trajectories: trajectories}, rng), nil
}

// TVD returns the total variation distance between two distributions.
func TVD(p, q []float64) float64 { return sim.TVD(p, q) }

// OptimalDepth runs the depth-optimal A* solver (§4) on a small instance
// and returns the provably minimal schedule depth in solver cycles (every
// program gate and SWAP costs one cycle). The search is exponential: it is
// intended for the sub-problem instances the structured patterns are
// derived from (lines and ladders of up to ~8 qubits, problems of up to 64
// interactions). maxNodes bounds the search (0 = 4M node expansions,
// negative = unbounded); ErrSolverBudget is returned when it is exhausted.
func OptimalDepth(dev *Device, p *Problem, maxNodes int) (int, error) {
	return OptimalDepthContext(context.Background(), dev, p, maxNodes)
}

// OptimalDepthContext is OptimalDepth honoring a context: the A* expansion
// loop polls the context every ~1k node expansions, so cancellation or a
// deadline abandons the search promptly with the context's error.
func OptimalDepthContext(ctx context.Context, dev *Device, p *Problem, maxNodes int) (int, error) {
	res, err := solver.SolveContext(ctx, dev.arch, p.g, nil, solver.Options{MaxNodes: maxNodes})
	if errors.Is(err, solver.ErrSearchExhausted) {
		return 0, ErrSolverBudget
	}
	if err != nil {
		return 0, err
	}
	return res.Depth, nil
}

// ErrSolverBudget reports that OptimalDepth hit its node budget before
// proving an optimum.
var ErrSolverBudget = errors.New("ataqc: optimal-depth search budget exhausted")

func (r *Result) instance() *qaoa.Instance {
	return &qaoa.Instance{
		Problem:  r.problem.g,
		Compiled: r.circuit,
		Initial:  r.initial,
		NPhys:    r.dev.Qubits(),
	}
}
