package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/verify"
)

func TestPressureLevels(t *testing.T) {
	p := pressurePolicy{queueDepth: 16, ceiling: 8 * time.Second}
	cases := []struct {
		queued int64
		level  int
	}{
		{0, PressureRelaxed},
		{7, PressureRelaxed},  // < 1/2
		{8, PressureElevated}, // = 1/2
		{13, PressureElevated},
		{14, PressureCritical}, // = 7/8
		{16, PressureCritical},
		{99, PressureCritical},
	}
	for _, tc := range cases {
		if got := p.level(tc.queued); got != tc.level {
			t.Errorf("level(%d) = %d, want %d", tc.queued, got, tc.level)
		}
	}
}

// TestPressureLevelBoundaries walks the exact admission-count transitions
// of the governance ladder for several server shapes. The denominator is
// the server's full capacity (Workers + QueueDepth, as wired in New), so
// the table pins the three operational points the daemon actually visits —
// empty (0), all workers busy (Workers), and full capacity — plus the
// first queued count that leaves Relaxed (ceil(depth/2)) and the first
// that reaches Critical (ceil(7*depth/8)).
func TestPressureLevelBoundaries(t *testing.T) {
	shapes := []struct {
		workers, queue int
	}{
		{2, 4},  // ataqcd CI shape
		{2, 6},  // default queue = 4*workers
		{8, 32}, // larger default shape
		{1, 1},  // minimal: elevated and critical nearly coincide
		{3, 5},
	}
	for _, sh := range shapes {
		depth := sh.workers + sh.queue
		p := pressurePolicy{queueDepth: depth, ceiling: time.Second}
		firstElevated := (depth + 1) / 2
		firstCritical := (7*depth + 7) / 8

		cases := []struct {
			queued int64
			want   int
		}{
			{0, PressureRelaxed},
			{int64(firstElevated) - 1, PressureRelaxed},
			{int64(firstElevated), PressureElevated},
			{int64(firstCritical) - 1, PressureElevated},
			{int64(firstCritical), PressureCritical},
			{int64(depth), PressureCritical}, // full capacity is always critical: 8*depth >= 7*depth
			{int64(depth) + 1, PressureCritical},
		}
		// Degenerate shapes where the elevated band is empty.
		if firstElevated >= firstCritical {
			cases[3].want = PressureRelaxed // firstCritical-1 < firstElevated
		}
		for _, tc := range cases {
			if tc.queued < 0 {
				continue
			}
			if got := p.level(tc.queued); got != tc.want {
				t.Errorf("shape %d+%d: level(%d) = %d, want %d",
					sh.workers, sh.queue, tc.queued, got, tc.want)
			}
		}

		// All workers busy but nothing queued must never be Critical: the
		// ladder only degrades output once a real backlog forms.
		if got := p.level(int64(sh.workers)); got == PressureCritical && sh.workers < firstCritical {
			t.Errorf("shape %d+%d: busy workers alone reached critical", sh.workers, sh.queue)
		}
	}

	// Guard clause: a zero/negative denominator never throttles.
	p := pressurePolicy{queueDepth: 0, ceiling: time.Second}
	for _, q := range []int64{0, 1, 1 << 30} {
		if got := p.level(q); got != PressureRelaxed {
			t.Errorf("queueDepth=0: level(%d) = %d, want relaxed", q, got)
		}
	}
}

func TestPressureBudgetsOnlyTighten(t *testing.T) {
	p := pressurePolicy{queueDepth: 16, ceiling: 8 * time.Second}

	// Relaxed: the client's own budget survives, clamped to the ceiling.
	if d, n := p.budgets(PressureRelaxed, 0, 0); d != 8*time.Second || n != 0 {
		t.Fatalf("relaxed unbounded = (%v, %d), want (8s, 0)", d, n)
	}
	if d, _ := p.budgets(PressureRelaxed, time.Second, 0); d != time.Second {
		t.Fatalf("relaxed keeps the client's tighter deadline, got %v", d)
	}
	if d, _ := p.budgets(PressureRelaxed, time.Minute, 0); d != 8*time.Second {
		t.Fatalf("relaxed clamps to the ceiling, got %v", d)
	}

	// Elevated: quarter ceiling, bounded work.
	if d, n := p.budgets(PressureElevated, 0, 0); d != 2*time.Second || n != elevatedMaxNodes {
		t.Fatalf("elevated = (%v, %d), want (2s, %d)", d, n, elevatedMaxNodes)
	}
	// A client asking for less work than the ladder keeps its own cap.
	if _, n := p.budgets(PressureElevated, 0, 100); n != 100 {
		t.Fatalf("elevated raised the client's work budget to %d", n)
	}

	// Critical: near-zero work budget — immediate fall to the ATA floor.
	if d, n := p.budgets(PressureCritical, 0, 0); d != time.Second || n != criticalMaxNodes {
		t.Fatalf("critical = (%v, %d), want (1s, %d)", d, n, criticalMaxNodes)
	}
}

// TestStarvedRequestDegradesToVerifierCleanATA is the degradation-ladder
// contract at the service boundary: a request compiled under critical queue
// pressure must still return HTTP 200 with a complete, verifier-clean
// circuit — degraded to the structured ATA floor (Theorem 6.1) — never an
// error. The backlog is synthesized by inflating the admission counter, so
// the pressure sample is deterministic.
func TestStarvedRequestDegradesToVerifierCleanATA(t *testing.T) {
	captured := make(chan *ataqc.Result, 1)
	cfg := Config{
		Workers: 1, QueueDepth: 8,
		Compile: func(ctx context.Context, dev *ataqc.Device, prob *ataqc.Problem, opts ataqc.Options) (*ataqc.Result, error) {
			res, err := ataqc.CompileContext(ctx, dev, prob, opts)
			if err == nil {
				captured <- res
			}
			return res, err
		},
	}
	srv := New(cfg)
	// Capacity is 9; 7 phantom occupants + this request = 8 >= 7/8 * 9.
	srv.queued.Add(7)
	defer srv.queued.Add(-7)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prob := ataqc.RandomProblem(36, 0.4, 5)
	body, _ := json.Marshal(CompileRequest{Arch: "grid", Edges: prob.InteractionList(), IncludeQASM: true})
	status, m := post(t, ts, string(body))
	if status != http.StatusOK {
		t.Fatalf("starved request answered %d, want 200 (body %v)", status, m)
	}
	if lvl, _ := m["pressure"].(float64); int(lvl) != PressureCritical {
		t.Fatalf("pressure %v, want %d", m["pressure"], PressureCritical)
	}
	if deg, _ := m["degraded"].(bool); !deg {
		t.Fatalf("starved request was not degraded: %v", m)
	}
	rung, _ := m["degradeRung"].(string)
	if rung != "pure-ata" {
		t.Fatalf("degrade rung %q, want pure-ata (the Theorem 6.1 floor)", rung)
	}
	if b, _ := m["degradeBudget"].(string); b == "" {
		t.Fatalf("missing structured degradeBudget in %v", m)
	}

	// The served circuit passes every error-severity verifier analyzer:
	// degraded means "not the candidate an unbounded search picks", never
	// "broken".
	res := <-captured
	for _, d := range res.Lint() {
		if d.Severity == "error" {
			t.Fatalf("degraded result failed the verifier: %v", d)
		}
	}
	if n := srv.Metrics().Counter("serve.degraded").Value(); n != 1 {
		t.Fatalf("degraded counter %d, want 1", n)
	}

	// And the QASM the client received parses and conforms to the device
	// coupling graph end-to-end.
	qasm, _ := m["qasm"].(string)
	if qasm == "" {
		t.Fatal("missing qasm in response")
	}
	c, err := circuit.ParseQASM(strings.NewReader(qasm))
	if err != nil {
		t.Fatalf("served QASM does not parse: %v", err)
	}
	diags := verify.Run(&verify.Pass{Circuit: c, Arch: arch.GridN(36)}, verify.ArchConformance)
	if err := verify.AsError(diags); err != nil {
		t.Fatalf("served QASM violates the architecture: %v", err)
	}
}

// TestElevatedPressureStillServes: the middle rung keeps serving real
// (possibly hybrid) circuits with a truncated prediction pool.
func TestElevatedPressureStillServes(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	srv.queued.Add(4) // 4 + 1 = 5 >= 9/2 -> elevated
	defer srv.queued.Add(-4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prob := ataqc.RandomProblem(16, 0.4, 2)
	body, _ := json.Marshal(CompileRequest{Arch: "grid", Edges: prob.InteractionList()})
	status, m := post(t, ts, string(body))
	if status != http.StatusOK {
		t.Fatalf("elevated request answered %d (body %v)", status, m)
	}
	if lvl, _ := m["pressure"].(float64); int(lvl) != PressureElevated {
		t.Fatalf("pressure %v, want %d", m["pressure"], PressureElevated)
	}
	if d, _ := m["depth"].(float64); d <= 0 {
		t.Fatalf("depth %v, want > 0", m["depth"])
	}
	// The admission counts under the names the benchmark reads; a level
	// no request reached has no counter yet.
	counters := srv.Metrics().Snapshot().Counters
	if counters["serve.pressure.1"] != 1 {
		t.Fatalf("serve.pressure.1 = %d, want 1", counters["serve.pressure.1"])
	}
	for _, name := range []string{"serve.pressure.0", "serve.pressure.2"} {
		if _, ok := counters[name]; ok {
			t.Fatalf("%s exists without a request at that level", name)
		}
	}
}
