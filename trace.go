package ataqc

import (
	"io"
	"time"

	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// Trace captures one or more compilations' execution timelines: hierarchical
// spans over every compiler phase (placement, greedy scheduling, the hybrid
// prediction fan-out with per-worker lanes, ATA materialisation,
// verification) plus a metrics registry (worker-pool queue wait vs. run
// time, budget spend, cut predictions). Create one with NewTrace, pass it
// via Options.Trace, then export in the format you need:
//
//	tr := ataqc.NewTrace()
//	res, err := ataqc.Compile(dev, prob, ataqc.Options{Trace: tr})
//	f, _ := os.Create("compile.trace.json")
//	tr.WriteChrome(f) // load in chrome://tracing or ui.perfetto.dev
//
// A nil *Trace disables tracing entirely; the compiler's instrumented paths
// then cost a single pointer check each. Tracing never changes the compiled
// circuit — the determinism test in internal/core proves byte-identical
// QASM with and without a trace.
type Trace struct {
	t *obs.Trace
}

// NewTrace returns an enabled trace.
func NewTrace() *Trace { return &Trace{t: obs.New()} }

// inner unwraps to the internal trace (nil-safe: a nil *Trace is the
// disabled tracer).
func (t *Trace) inner() *obs.Trace {
	if t == nil {
		return nil
	}
	return t.t
}

// WriteChrome exports the trace as Chrome trace_event JSON, loadable in
// chrome://tracing or ui.perfetto.dev.
func (t *Trace) WriteChrome(w io.Writer) error { return t.inner().WriteChrome(w) }

// WriteJSONL exports the trace as a flat JSONL event log (one
// self-describing JSON object per line: spans, events, then metrics).
func (t *Trace) WriteJSONL(w io.Writer) error { return t.inner().WriteJSONL(w) }

// WriteText exports the trace as a human-readable span tree with a metrics
// summary.
func (t *Trace) WriteText(w io.Writer) error { return t.inner().WriteText(w) }

// WriteFormat exports in the named format: "chrome", "jsonl", or "text".
func (t *Trace) WriteFormat(w io.Writer, format string) error {
	return t.inner().WriteFormat(w, format)
}

// Phase is one named, timed segment of the compile pipeline.
type Phase struct {
	Name     string
	Duration time.Duration
}

// CheckpointTiming is one hybrid checkpoint's prediction telemetry: which
// pool worker ran it (1-based), how long it waited in the queue versus
// ran, and the selector cost it produced. Cut marks a prediction stopped
// at the first step where its running cost reached the pure-greedy score
// 1 — the checkpoint had lost — and Cost then holds that running cost.
type CheckpointTiming struct {
	Prefix    int
	Cycle     int
	Worker    int
	Wait      time.Duration
	Run       time.Duration
	Cost      float64
	Scored    bool
	Cut       bool
	Evaluated bool
}

// Timeline is the compact per-compile phase breakdown. It is collected on
// every compilation, traced or not — benchmarks use it to report where
// compile time went.
type Timeline struct {
	Phases      []Phase
	Checkpoints []CheckpointTiming
	// Winner names the candidate the selector picked: "greedy", "ata", or
	// "hybrid".
	Winner string
}

// PhaseDuration returns the duration of the named phase ("place", "greedy",
// "predict", "materialize", "ata", "verify"); 0 when absent.
func (t *Timeline) PhaseDuration(name string) time.Duration {
	for _, p := range t.Phases {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// Timeline returns the compile's phase breakdown (zero value for baseline
// strategies, which are not instrumented).
func (r *Result) Timeline() Timeline {
	tl := Timeline{Winner: r.timeline.Winner}
	for _, p := range r.timeline.Phases {
		tl.Phases = append(tl.Phases, Phase(p))
	}
	for _, c := range r.timeline.Checkpoints {
		tl.Checkpoints = append(tl.Checkpoints, CheckpointTiming(c))
	}
	return tl
}

// DegradeDetail is the structured degradation breadcrumb: which budget
// tripped ("deadline", "max-nodes", "stall", "interrupt"), which rung of
// the degradation ladder answered ("best-so-far", "pure-ata"), the
// checkpoint index at the trip, and the triggering budget values.
type DegradeDetail struct {
	Budget      string
	Rung        string
	Checkpoint  int
	Checkpoints int
	WorkUnits   int64
	MaxNodes    int
	Deadline    time.Duration
	Cause       string
}

// DegradeDetail returns the structured reason (zero value when the compile
// did not degrade; see also DegradeReason for the rendered string).
func (r *Result) DegradeDetail() DegradeDetail { return DegradeDetail(r.degradeReason) }

// compile-time guards: the public mirrors must stay field-compatible with
// the internal types they convert from.
var (
	_ = Phase(core.Phase{})
	_ = CheckpointTiming(core.CheckpointTiming{})
	_ = DegradeDetail(core.DegradeReason{})
)
