package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/verify"
	"math/rand"
)

func testProblem(t *testing.T, n int, density float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return graph.GnpConnected(n, density, rng)
}

// verifyClean asserts the result passes every error-severity analyzer —
// the contract a degraded circuit must still honor.
func verifyClean(t *testing.T, a *arch.Arch, p *graph.Graph, res *Result) {
	t.Helper()
	pass := &verify.Pass{
		Circuit:       res.Circuit,
		Arch:          a,
		Problem:       p,
		Initial:       res.Initial,
		Final:         res.Final,
		ReportedDepth: res.Metrics.Depth,
		CheckDepth:    true,
	}
	if err := verify.Check(pass, verify.Strict...); err != nil {
		t.Fatalf("degraded circuit fails verification: %v", err)
	}
}

func TestDeadlineDegradesToATA(t *testing.T) {
	a := arch.GridN(64)
	p := testProblem(t, 64, 0.5, 7)
	start := time.Now()
	res, err := CompileContext(context.Background(), a, p, Options{Deadline: time.Nanosecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("expected degraded result, got error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set despite an already-expired deadline")
	}
	if res.DegradeReason.IsZero() {
		t.Fatal("DegradeReason empty on a degraded result")
	}
	if res.Source != "ata" {
		t.Fatalf("expected the pure-ATA rung, got source %q", res.Source)
	}
	// The fallback is O(n): far below any human-scale bound even on CI.
	if elapsed > 10*time.Second {
		t.Fatalf("degraded compile took %v; the fallback must return promptly", elapsed)
	}
	verifyClean(t, a, p, res)
}

func TestMaxNodesDegradesDeterministically(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.4, 3)
	res, err := Compile(a, p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatalf("expected degraded result, got error: %v", err)
	}
	if !res.Degraded || res.Source != "ata" {
		t.Fatalf("expected degraded pure-ATA result, got degraded=%v source=%q", res.Degraded, res.Source)
	}
	if !strings.Contains(res.DegradeReason.String(), "budget") {
		t.Fatalf("reason should name the budget, got %q", res.DegradeReason.String())
	}
	verifyClean(t, a, p, res)
}

func TestPredictionBudgetKeepsBestSoFar(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 11)
	initial := make([]int, p.N())
	for i := range initial {
		initial[i] = i
	}
	// Learn the greedy cycle count so the budget can be placed after greedy
	// completes but before the prediction loop can finish.
	g, err := greedy.Compile(a, p, initial, greedy.Options{Angle: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(a, p, Options{InitialMapping: initial, MaxNodes: g.Cycles + 1})
	if err != nil {
		t.Fatalf("expected degraded result, got error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected prediction-loop truncation to mark the result degraded")
	}
	if !strings.Contains(res.DegradeReason.String(), "prediction budget exhausted") {
		t.Fatalf("expected the best-so-far rung, got %q", res.DegradeReason.String())
	}
	if res.Stats.Predictions >= res.Stats.Checkpoints {
		t.Fatalf("expected truncated predictions: %d/%d", res.Stats.Predictions, res.Stats.Checkpoints)
	}
	verifyClean(t, a, p, res)
}

// TestDegradeCheckpointCountsEvaluated runs out the work budget halfway
// through prediction: DegradeReason.Checkpoint must count the evaluated
// checkpoints (the Timeline's entries) at every worker count, and a
// Workers=1 compile must degrade the same way every time.
func TestDegradeCheckpointCountsEvaluated(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 11)
	initial := make([]int, p.N())
	for i := range initial {
		initial[i] = i
	}
	g, err := greedy.Compile(a, p, initial, greedy.Options{Angle: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compile(a, p, Options{InitialMapping: initial, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	maxNodes := (g.Cycles + int(full.Stats.WorkUnits)) / 2
	var first *Result
	for _, workers := range []int{1, 1, 8} {
		res, err := Compile(a, p, Options{InitialMapping: initial, MaxNodes: maxNodes, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		d := res.DegradeReason
		if d.Rung != "best-so-far" {
			t.Fatalf("workers=%d: want the best-so-far rung, got %+v", workers, d)
		}
		if d.Checkpoint != len(res.Timeline.Checkpoints) {
			t.Fatalf("workers=%d: reason counts %d checkpoints, timeline evaluated %d",
				workers, d.Checkpoint, len(res.Timeline.Checkpoints))
		}
		verifyClean(t, a, p, res)
		if workers != 1 {
			continue
		}
		if first == nil {
			first = res
			continue
		}
		if d != first.DegradeReason {
			t.Fatalf("workers=1 reasons differ across runs: %+v vs %+v", d, first.DegradeReason)
		}
		if !bytes.Equal(qasmOf(t, res), qasmOf(t, first)) {
			t.Fatal("workers=1 degraded circuits differ across runs")
		}
	}
}

func TestCanceledContextIsAnErrorNotADegrade(t *testing.T) {
	a := arch.GridN(64)
	p := testProblem(t, 64, 0.5, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CompileContext(ctx, a, p, Options{})
	if err == nil {
		t.Fatalf("expected an error from a canceled context, got result %v", res.Source)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got %v", err)
	}
}

func TestUnboundedContextOutputIdenticalToCompile(t *testing.T) {
	a := arch.GridN(49)
	p := testProblem(t, 49, 0.35, 5)
	r1, err := Compile(a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CompileContext(context.Background(), a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var q1, q2 bytes.Buffer
	if err := r1.Circuit.WriteQASM(&q1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Circuit.WriteQASM(&q2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q1.Bytes(), q2.Bytes()) {
		t.Fatal("ungoverned CompileContext output differs from Compile")
	}
	if r1.Degraded || r2.Degraded {
		t.Fatal("unbounded compiles must not be degraded")
	}
	if r2.Stats.WorkUnits == 0 {
		t.Fatal("Stats.WorkUnits should account greedy cycles even unbounded")
	}
}

func TestGreedyModeDegradesWhenPatternExists(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.4, 3)
	res, err := Compile(a, p, Options{Mode: ModeGreedy, MaxNodes: 1})
	if err != nil {
		t.Fatalf("expected ATA fallback, got error: %v", err)
	}
	if !res.Degraded || res.Source != "ata" {
		t.Fatalf("expected degraded ATA result, got degraded=%v source=%q", res.Degraded, res.Source)
	}
	verifyClean(t, a, p, res)
}

func TestGreedyModeBudgetErrorWithoutPattern(t *testing.T) {
	// An irregular architecture has no structured fallback: budget
	// exhaustion must surface as a typed error, not a panic or a hang.
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(0, 3) // a chord, so it is not literally a line
	a := arch.Generic("irregular-6", g)
	p := testProblem(t, 6, 0.6, 2)
	_, err := Compile(a, p, Options{Mode: ModeGreedy, MaxNodes: 1})
	if err == nil {
		t.Fatal("expected a budget error on an architecture with no ATA fallback")
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("error should wrap ErrBudgetExhausted, got %v", err)
	}
}

func TestPanicBoundaryConvertsToErrInternal(t *testing.T) {
	// A problem wider than the device trips a builder invariant panic
	// below core; the boundary must convert it into a diagnosable error.
	a := arch.Line(4)
	p := graph.Complete(8)
	_, err := Compile(a, p, Options{Mode: ModeGreedy})
	if err == nil {
		t.Fatal("expected an error for an oversized problem")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error should wrap ErrInternal, got %v", err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should carry the panic diagnosis, got %v", err)
	}
}

func TestInvalidInitialMappingTypedError(t *testing.T) {
	a := arch.GridN(16)
	p := testProblem(t, 16, 0.3, 1)
	bad := make([]int, p.N())
	for i := range bad {
		bad[i] = 0 // every logical qubit on physical 0
	}
	_, err := Compile(a, p, Options{InitialMapping: bad})
	if err == nil {
		t.Fatal("expected an error for a non-injective mapping")
	}
	if errors.Is(err, ErrInternal) {
		t.Fatalf("input validation should reject before the panic boundary: %v", err)
	}
}
