package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// Phase is one named, timed segment of the compile pipeline (place, greedy,
// predict, materialize, ata, verify).
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"durationNs"`
}

// CheckpointTiming is the per-checkpoint telemetry of the hybrid prediction
// loop: which worker ran the prediction, how long the job waited in the
// pool's queue versus ran, and the selector cost it produced.
type CheckpointTiming struct {
	// Prefix and Cycle identify the checkpoint (see Stats.SelectedPrefix).
	Prefix int `json:"prefix"`
	Cycle  int `json:"cycle"`
	// Worker is the 1-based pool worker that ran the prediction.
	Worker int `json:"worker"`
	// Wait is the queue time between the job being fed to the pool and a
	// worker picking it up; Run is the prediction's own duration.
	Wait time.Duration `json:"waitNs"`
	Run  time.Duration `json:"runNs"`
	// Cost is the selector cost F the prediction produced; meaningful only
	// when Scored. Evaluated means the prediction ran at all (a pattern may
	// decline a region, leaving Evaluated && !Scored). Cut means the
	// prediction stopped at the first step where its running cost reached
	// the pure-greedy score 1, so the checkpoint had lost: Cost then holds
	// that running cost, at least 1 and at most the full prediction's F.
	// A cut entry is Scored and counts in Stats.Predictions.
	Cost      float64 `json:"cost"`
	Scored    bool    `json:"scored"`
	Cut       bool    `json:"cut"`
	Evaluated bool    `json:"evaluated"`
}

// Timeline is the compact phase breakdown attached to every Result — cheap
// enough to collect unconditionally (a few clock reads per phase and
// checkpoint), so benchmarks report where compile time went without a full
// trace.
type Timeline struct {
	Phases      []Phase            `json:"phases"`
	Checkpoints []CheckpointTiming `json:"checkpoints,omitempty"`
	// Winner mirrors Result.Source: which candidate the selector picked.
	Winner string `json:"winner"`
}

// PhaseDuration returns the duration of the named phase (0 when absent).
func (t *Timeline) PhaseDuration(name string) time.Duration {
	for _, p := range t.Phases {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// recorder bundles one compilation's observability plumbing: the trace
// (nil when tracing is disabled — every obs call below is nil-safe), the
// clock that spans, governance, and the timeline all share, the root span,
// and the always-collected Timeline.
type recorder struct {
	tr    *obs.Trace
	clock obs.Clock
	root  *obs.Span
	tl    Timeline
}

func newRecorder(tr *obs.Trace) *recorder {
	return &recorder{tr: tr, clock: obs.ClockOf(tr)}
}

// phaseHandle is an open phase: end() closes its span and appends the
// timeline entry.
type phaseHandle struct {
	rec   *recorder
	name  string
	span  *obs.Span
	start time.Time
}

func (r *recorder) phase(name string) *phaseHandle {
	return &phaseHandle{rec: r, name: name, span: r.tr.StartSpan(r.root, name), start: r.clock.Now()}
}

func (p *phaseHandle) end() {
	p.span.End()
	p.rec.tl.Phases = append(p.rec.tl.Phases, Phase{Name: p.name, Duration: p.rec.clock.Now().Sub(p.start)})
}

// DegradeReason is the structured degradation breadcrumb: which budget
// tripped, which rung of the ladder answered, and where the compile stood
// when it happened. The zero value means "not degraded".
type DegradeReason struct {
	// Budget names the limit that tripped: "deadline" (wall clock),
	// "max-nodes" (work budget), "stall" (greedy made no progress), or
	// "interrupt".
	Budget string `json:"budget"`
	// Rung is the ladder rung that answered: "best-so-far" (selection over
	// the candidates scored before exhaustion) or "pure-ata" (the Theorem
	// 6.1 linear-depth floor).
	Rung string `json:"rung"`
	// Checkpoint is how many checkpoints had been evaluated (ran a
	// prediction, scored or not) when the budget tripped — the length of
	// Timeline.Checkpoints; -1 when the trip preceded prediction entirely.
	Checkpoint int `json:"checkpoint"`
	// Checkpoints is the total selector candidates that existed.
	Checkpoints int `json:"checkpoints"`
	// WorkUnits is the governed work spent at the trip point, and MaxNodes /
	// Deadline echo the configured budgets (0 = unbounded) so the breadcrumb
	// records the triggering values, not just their names.
	WorkUnits int64         `json:"workUnits"`
	MaxNodes  int           `json:"maxNodes"`
	Deadline  time.Duration `json:"deadlineNs"`
	// Cause is the text of the underlying budget error.
	Cause string `json:"cause"`
}

// IsZero reports whether the compile degraded at all.
func (d DegradeReason) IsZero() bool { return d.Rung == "" }

// String renders the historical human-readable reason.
func (d DegradeReason) String() string {
	switch d.Rung {
	case "":
		return ""
	case "pure-ata":
		return fmt.Sprintf("%s; degraded to pure ATA (linear-depth floor, Theorem 6.1)", d.Cause)
	default:
		return fmt.Sprintf(
			"prediction budget exhausted after %d/%d checkpoints (%s); selected best candidate so far",
			d.Checkpoint, d.Checkpoints, d.Cause)
	}
}

// classifyBudget maps a degradable error onto the budget that tripped.
func classifyBudget(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrBudgetExhausted):
		return "max-nodes"
	case errors.Is(err, greedy.ErrNoProgress):
		return "stall"
	case errors.Is(err, greedy.ErrInterrupted):
		return "interrupt"
	default:
		return "other"
	}
}

// degradeReasonFor assembles the breadcrumb and emits it as an obs event,
// so traces show the exact moment (and trigger values) of every ladder
// transition.
func degradeReasonFor(rung string, cause error, evaluated, total int, bud *budget, opts Options, rec *recorder) DegradeReason {
	d := DegradeReason{
		Budget:      classifyBudget(cause),
		Rung:        rung,
		Checkpoint:  evaluated,
		Checkpoints: total,
		WorkUnits:   bud.spent(),
		MaxNodes:    opts.MaxNodes,
		Deadline:    opts.Deadline,
		Cause:       cause.Error(),
	}
	rec.tr.Event(rec.root, "degrade",
		obs.Str("budget", d.Budget),
		obs.Str("rung", d.Rung),
		obs.Int("checkpoint", d.Checkpoint),
		obs.Int("checkpoints", d.Checkpoints),
		obs.I64("work_units", d.WorkUnits),
		obs.Int("max_nodes", d.MaxNodes),
		obs.Dur("deadline", d.Deadline),
		obs.Str("cause", d.Cause))
	return d
}
