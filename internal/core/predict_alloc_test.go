package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// predictFixture returns a predictor of a hybrid compile of p on a (under
// noise model nm, nil for none), its middle greedy checkpoint and that
// checkpoint's want set, with the pattern cache and the predictor's
// buffers warmed by scoring the checkpoint once.
func predictFixture(tb testing.TB, a *arch.Arch, p *graph.Graph, nm *noise.Model) (*predictor, checkpoint, *swapnet.EdgeSet) {
	tb.Helper()
	opts := Options{Workers: 1, Noise: nm, PatternCache: swapnet.NewPatternCache(0)}
	opts.applyDefaults()
	var cps []checkpoint
	g, err := greedy.Compile(a, p, greedy.InitialMapping(a, p), greedy.Options{
		Noise: nm,
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
	pr := h.newPredictor()
	if _, ok, _ := pr.score(cp, want.Clone()); !ok {
		tb.Fatal("checkpoint not scored")
	}
	return pr, cp, want
}

// gridFixture is a grid-64/ER-0.5 checkpoint.
func gridFixture(tb testing.TB) (*predictor, checkpoint, *swapnet.EdgeSet) {
	return predictFixture(tb, arch.GridN(64), graph.GnpConnected(64, 0.5, rand.New(rand.NewSource(1))), nil)
}

// TestPredictCheckpointAllocs pins the allocation cost of scoring one
// checkpoint from a warm pattern cache, want-set clone included, so a
// map, closure or per-step slice creeping back into the prediction loop
// fails here. The patterns, the predictor and region detection reuse
// their memory; what remains is the per-checkpoint State (its struct and
// two mappings) and the want-set copy (struct and bits). Each ceiling is
// the count measured when it was last lowered.
func TestPredictCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation and pool semantics skew allocation counts")
	}
	hh := arch.HeavyHexN(64)
	cases := []struct {
		name    string
		fixture func(testing.TB) (*predictor, checkpoint, *swapnet.EdgeSet)
		ceiling float64
	}{
		{"grid-64/er-0.5", gridFixture, 5},
		{"heavy-hex-64/er-0.3/noise", func(tb testing.TB) (*predictor, checkpoint, *swapnet.EdgeSet) {
			return predictFixture(tb, hh, graph.GnpConnected(64, 0.3, rand.New(rand.NewSource(1))), noise.Synthetic(hh, 1))
		}, 5},
	}
	for _, c := range cases {
		p, cp, want := c.fixture(t)
		allocs := testing.AllocsPerRun(50, func() {
			if _, ok, _ := p.score(cp, want.Clone()); !ok {
				t.Fatal("checkpoint not scored")
			}
		})
		t.Logf("%s: %.1f allocations per checkpoint", c.name, allocs)
		if allocs > c.ceiling {
			t.Fatalf("%s: scoring one checkpoint allocates %.1f objects, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkPredictCheckpoint times scoring one grid-64/ER-0.5 checkpoint
// from a warm pattern cache.
func BenchmarkPredictCheckpoint(b *testing.B) {
	p, cp, want := gridFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink, _, _ = p.score(cp, want.Clone())
	}
}

// predictSink keeps the benchmarked score live.
var predictSink float64
