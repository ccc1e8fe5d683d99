package serve

import "time"

// Pressure levels. Admission control measures queue occupancy at the moment
// a request is admitted and compiles it under the matching budget: the
// deeper the backlog, the tighter the budget, so a saturated daemon answers
// every admitted request quickly with a degraded (Theorem 6.1 linear-depth)
// circuit instead of letting latency collapse. This reuses the PR 2
// governance ladder — the serving layer only chooses how much budget each
// request gets; the compiler's own degradation machinery does the rest.
const (
	// PressureRelaxed: occupancy below 1/2 — the request keeps its full
	// budget (its own TimeoutMs clamped to the server ceiling).
	PressureRelaxed = 0
	// PressureElevated: occupancy in [1/2, 7/8) — wall-clock budget cut to
	// a quarter of the ceiling and a generous work budget installed, so
	// hybrid compiles start truncating their prediction pools.
	PressureElevated = 1
	// PressureCritical: occupancy at or above 7/8 — a near-zero work
	// budget forces an immediate fall to the structured ATA floor: O(n)
	// pattern replay, deterministic, verifier-clean.
	PressureCritical = 2
)

// pressureCounters names the metrics counter each level's admissions
// count under, indexed by level.
var pressureCounters = [...]string{
	PressureRelaxed:  "serve.pressure.0",
	PressureElevated: "serve.pressure.1",
	PressureCritical: "serve.pressure.2",
}

// Work budgets installed by the elevated and critical levels. The elevated
// budget lets the greedy phase finish on mid-size problems while truncating
// prediction; the critical budget exhausts on the first poll so the compile
// degrades straight to the ATA floor.
const (
	elevatedMaxNodes = 4096
	criticalMaxNodes = 1
)

// pressurePolicy converts queue occupancy into per-request budgets.
type pressurePolicy struct {
	queueDepth int           // admission queue capacity (denominator)
	ceiling    time.Duration // per-request wall-clock ceiling
}

// level maps the number of queued-or-running requests to a pressure level.
func (p pressurePolicy) level(queued int64) int {
	if p.queueDepth <= 0 {
		return PressureRelaxed
	}
	switch {
	case queued*8 >= int64(p.queueDepth)*7:
		return PressureCritical
	case queued*2 >= int64(p.queueDepth):
		return PressureElevated
	default:
		return PressureRelaxed
	}
}

// budgets returns the effective wall-clock and work budgets for a request
// that asked for (deadline, maxNodes), compiled at the given level. The
// server only ever tightens: a client asking for less than the ladder
// allows keeps its own budget.
func (p pressurePolicy) budgets(level int, deadline time.Duration, maxNodes int) (time.Duration, int) {
	ceiling := p.ceiling
	switch level {
	case PressureElevated:
		ceiling = p.ceiling / 4
		maxNodes = tighten(maxNodes, elevatedMaxNodes)
	case PressureCritical:
		ceiling = p.ceiling / 8
		maxNodes = tighten(maxNodes, criticalMaxNodes)
	}
	if deadline == 0 || deadline > ceiling {
		deadline = ceiling
	}
	return deadline, maxNodes
}

// tighten returns the smaller of the client's work budget and the ladder's
// (0 = client asked for unbounded, so the ladder's cap wins).
func tighten(client, ladder int) int {
	if client == 0 || client > ladder {
		return ladder
	}
	return client
}
