package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// qasmOf renders a result's circuit so compilations can be compared
// byte-for-byte.
func qasmOf(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Circuit.WriteQASM(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// comparableStats strips the one field that legitimately varies across
// worker counts: Elapsed is wall-clock. Everything else — including the
// selected checkpoint — must be identical.
func comparableStats(s Stats) Stats {
	s.Elapsed = 0
	return s
}

// TestParallelDeterminism pins the tentpole contract: for every
// architecture family and workload class, the compiled circuit, the
// governance stats, and the selected checkpoint are byte-identical whether
// the prediction pool runs one worker (Workers=1) or fans out (Workers 2,
// 8) over the shared pattern cache. Beyond the 16-qubit matrix it covers
// the evaluation-sized cells where prediction dominates compile time: ER
// problems on 36-qubit grid and heavy-hex devices, and on 64-qubit ones
// outside -short mode. The suite runs under -race in CI, so it doubles as
// the data-race witness for the cache and the atomic budget.
func TestParallelDeterminism(t *testing.T) {
	type cell struct {
		name string
		a    *arch.Arch
		g    *graph.Graph
	}
	const n = 16
	archs := []struct {
		name string
		a    *arch.Arch
	}{
		{"line", arch.Line(n)},
		{"grid", arch.Grid(4, 4)},
		{"heavy-hex", arch.HeavyHexN(n)},
	}
	problems := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-0.1", graph.GnpConnected(n, 0.1, rand.New(rand.NewSource(41)))},
		{"er-0.5", graph.GnpConnected(n, 0.5, rand.New(rand.NewSource(42)))},
		{"er-0.9", graph.GnpConnected(n, 0.9, rand.New(rand.NewSource(43)))},
		{"regular-3", graph.MustRandomRegular(n, 3, rand.New(rand.NewSource(44)))},
	}
	var cells []cell
	for _, ac := range archs {
		for _, pc := range problems {
			cells = append(cells, cell{ac.name + "/" + pc.name, ac.a, pc.g})
		}
	}
	sizes := []int{36}
	if !testing.Short() {
		sizes = append(sizes, 64)
	}
	for _, size := range sizes {
		er := func(density float64) *graph.Graph {
			return graph.GnpConnected(size, density, rand.New(rand.NewSource(1)))
		}
		cells = append(cells,
			cell{fmt.Sprintf("grid-%d/er-0.5", size), arch.GridN(size), er(0.5)},
			cell{fmt.Sprintf("heavy-hex-%d/er-0.3", size), arch.HeavyHexN(size), er(0.3)})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			ref, err := Compile(c.a, c.g, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			refQASM := qasmOf(t, ref)
			for _, workers := range []int{2, 8} {
				res, err := Compile(c.a, c.g, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := qasmOf(t, res); !bytes.Equal(refQASM, got) {
					t.Fatalf("workers=%d: circuit differs from serial compile", workers)
				}
				if res.Source != ref.Source {
					t.Fatalf("workers=%d: source %q != serial %q", workers, res.Source, ref.Source)
				}
				if got, want := comparableStats(res.Stats), comparableStats(ref.Stats); got != want {
					t.Fatalf("workers=%d: stats %+v != serial %+v", workers, got, want)
				}
				if res.Stats.SelectedPrefix != ref.Stats.SelectedPrefix {
					t.Fatalf("workers=%d: selected checkpoint %d != serial %d",
						workers, res.Stats.SelectedPrefix, ref.Stats.SelectedPrefix)
				}
			}
		})
	}
}

// TestParallelDeterminismNoiseAware repeats the pin with a noise model, so
// the fidelity term of the selector (and the per-edge log-fidelity sums of
// the predictor) is covered too.
func TestParallelDeterminismNoiseAware(t *testing.T) {
	a := arch.Grid(4, 4)
	nm := noise.Synthetic(a, 42)
	p := graph.GnpConnected(16, 0.5, rand.New(rand.NewSource(45)))
	ref, err := Compile(a, p, Options{Workers: 1, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(a, p, Options{Workers: 8, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qasmOf(t, ref), qasmOf(t, res)) {
		t.Fatal("noise-aware parallel compile differs from serial")
	}
	if comparableStats(res.Stats) != comparableStats(ref.Stats) {
		t.Fatalf("stats %+v != %+v", res.Stats, ref.Stats)
	}
}

// TestWorkersDefaulted pins the Options contract: 0 means GOMAXPROCS, and
// the parallel default still matches the explicit serial path.
func TestWorkersDefaulted(t *testing.T) {
	a := arch.Grid(4, 4)
	p := graph.GnpConnected(16, 0.5, rand.New(rand.NewSource(46)))
	ref, err := Compile(a, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(a, p, Options{}) // Workers: 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qasmOf(t, ref), qasmOf(t, res)) {
		t.Fatalf("defaulted Workers (GOMAXPROCS=%d) output differs from serial", runtime.GOMAXPROCS(0))
	}
}

// TestParallelStarvedBudgetDegrades: exhausting the work budget while the
// fan-out is in flight must ride the degradation ladder down to a
// verifier-clean circuit, never an error or a hang.
func TestParallelStarvedBudgetDegrades(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.4, 3)
	res, err := Compile(a, p, Options{MaxNodes: 1, Workers: 8})
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

// TestParallelPredictionBudgetKeepsBestSoFar places the budget between the
// end of greedy scheduling and the end of the prediction fan-out: a worker
// observes exhaustion mid-flight, the rest are cancelled, and the selector
// answers from whatever candidates completed.
func TestParallelPredictionBudgetKeepsBestSoFar(t *testing.T) {
	a := arch.GridN(36)
	p := testProblem(t, 36, 0.5, 11)
	initial := make([]int, p.N())
	for i := range initial {
		initial[i] = i
	}
	// Learn the greedy cycle count so the budget lands right after greedy
	// completes: the very first prediction charges push past it, and every
	// worker's next job observes exhaustion mid-fan-out. Predictions are
	// cut once they have lost and charge only the cycles they simulated,
	// so check on an unbounded serial run that the fan-out still has more
	// jobs than workers and charges far more than the one unit of headroom.
	g, err := greedy.Compile(a, p, initial, greedy.Options{Angle: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compile(a, p, Options{InitialMapping: initial, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	if charged := full.Stats.WorkUnits - int64(g.Cycles); full.Stats.Predictions <= workers || charged <= int64(full.Stats.Predictions) {
		t.Fatalf("unbounded run: %d predictions charging %d units cannot exhaust the budget mid-fan-out",
			full.Stats.Predictions, charged)
	}
	res, err := Compile(a, p, Options{InitialMapping: initial, MaxNodes: g.Cycles + 1, Workers: workers})
	if err != nil {
		t.Fatalf("expected degraded result, got error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected mid-fan-out exhaustion to mark the result degraded")
	}
	if !strings.Contains(res.DegradeReason.String(), "prediction budget exhausted") {
		t.Fatalf("expected the best-so-far rung, got %q", res.DegradeReason.String())
	}
	if d := res.DegradeReason; d.Checkpoint == 0 || d.Checkpoint >= d.Checkpoints {
		t.Fatalf("exhaustion after %d of %d checkpoints is not mid-fan-out", d.Checkpoint, d.Checkpoints)
	}
	verifyClean(t, a, p, res)
}

// TestParallelCancellationNoGoroutineLeak cancels the context mid-compile
// with a large worker fan-out and asserts (a) the error is the context's,
// not a degrade, and (b) the worker pool does not leak goroutines. The
// goroutine accounting retries to tolerate unrelated runtime churn.
func TestParallelCancellationNoGoroutineLeak(t *testing.T) {
	a := arch.GridN(64)
	p := testProblem(t, 64, 0.5, 7)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := CompileContext(ctx, a, p, Options{Workers: 8})
		if err == nil {
			t.Fatal("expected an error from a canceled context")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error should wrap context.Canceled, got %v", err)
		}
	}
	// A leaked pool would add 8 goroutines per compile. Allow slack for the
	// runtime's own background churn, with retries for stragglers that are
	// mid-exit when we count.
	for attempt := 0; ; attempt++ {
		after := runtime.NumGoroutine()
		if after <= before+4 {
			break
		}
		if attempt >= 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelCancellationMidFanOut cancels while workers are actually in
// flight (not before the compile starts), exercising the stop path of the
// pool rather than the up-front interrupt check.
func TestParallelCancellationMidFanOut(t *testing.T) {
	a := arch.GridN(64)
	p := testProblem(t, 64, 0.6, 9)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Let greedy scheduling start, then cancel during prediction.
		time.Sleep(5 * time.Millisecond)
		cancel()
		close(done)
	}()
	res, err := CompileContext(ctx, a, p, Options{Workers: 8})
	<-done
	if err == nil {
		// The compile may legitimately win the race and finish first; it
		// must then be a complete, non-degraded result.
		if res.Degraded {
			t.Fatal("a compile that beat the cancellation must not be degraded")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got %v", err)
	}
	for attempt := 0; ; attempt++ {
		after := runtime.NumGoroutine()
		if after <= before+4 {
			break
		}
		if attempt >= 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
