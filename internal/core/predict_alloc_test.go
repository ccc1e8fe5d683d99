package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// predictFixture returns the selector context of a grid-64/ER-0.5 hybrid
// compile, its middle greedy checkpoint and that checkpoint's want set,
// with the pattern cache warmed by scoring the checkpoint once.
func predictFixture(tb testing.TB) (*hybridEval, checkpoint, *swapnet.EdgeSet) {
	tb.Helper()
	a := arch.GridN(64)
	p := graph.GnpConnected(64, 0.5, rand.New(rand.NewSource(1)))
	opts := Options{Workers: 1, PatternCache: swapnet.NewPatternCache(0)}
	opts.applyDefaults()
	var cps []checkpoint
	g, err := greedy.Compile(a, p, greedy.InitialMapping(a, p), greedy.Options{
		Angle: opts.Angle,
		Checkpoint: func(prefixLen int, l2p []int, cycle int) {
			cps = append(cps, checkpoint{prefixLen: prefixLen, l2p: l2p, cycle: cycle})
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(cps) == 0 {
		tb.Fatal("greedy compile recorded no checkpoints")
	}
	h := newHybridEval(a, p, g, opts, newBudget(context.Background(), time.Now(), opts, nil), newRecorder(nil))
	cp := cps[len(cps)/2]
	want := swapnet.NewEdgeSet(p)
	removeScheduled(want, g.Circuit.Gates[:cp.prefixLen])
	if _, ok := h.scoreCheckpoint(cp, want.Clone()); !ok {
		tb.Fatal("checkpoint not scored")
	}
	return h, cp, want
}

// predictAllocCeiling is the allocation count of one warm-cache checkpoint
// score (want-set clone included) when the dense-bitset want sets and the
// pooled pattern buffers went in. The patterns themselves allocate
// nothing; what remains is the per-checkpoint State and want-set copy and
// region detection.
const predictAllocCeiling = 21

// TestPredictCheckpointAllocs pins the allocation cost of scoring one
// checkpoint from a warm pattern cache, so a map, closure or per-step
// slice creeping back into the prediction loop fails here.
func TestPredictCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation and pool semantics skew allocation counts")
	}
	h, cp, want := predictFixture(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := h.scoreCheckpoint(cp, want.Clone()); !ok {
			t.Fatal("checkpoint not scored")
		}
	})
	if allocs > predictAllocCeiling {
		t.Fatalf("scoring one checkpoint allocates %.1f objects, ceiling %d", allocs, predictAllocCeiling)
	}
}

// BenchmarkPredictCheckpoint times scoring one grid-64/ER-0.5 checkpoint
// from a warm pattern cache.
func BenchmarkPredictCheckpoint(b *testing.B) {
	h, cp, want := predictFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink, _ = h.scoreCheckpoint(cp, want.Clone())
	}
}

// predictSink keeps the benchmarked score live.
var predictSink float64
