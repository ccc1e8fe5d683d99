package ataqc

// One benchmark per paper table/figure (DESIGN.md experiment index E1–E12)
// plus the ablations A1–A3. Each benchmark runs a laptop-scale version of
// the experiment and reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation's shape;
// `ataqc experiments` runs the full-scale versions.

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/bench"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/qaoa"
	"github.com/ata-pattern/ataqc/internal/sim"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

func benchReport(b *testing.B, run func() (*bench.Report, error)) {
	b.Helper()
	var rep *bench.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Rows)), "rows")
}

// BenchmarkFig17 — E1: greedy vs solver-guided vs ours (§5.4, Fig 17).
func BenchmarkFig17(b *testing.B) {
	cfg := bench.QuickConfig()
	cfg.Trials = 1
	benchReport(b, func() (*bench.Report, error) { return bench.RunFig17(cfg) })
}

// BenchmarkFig20 — E2/E3: depth and gate count vs QAIM/Paulihedral on
// heavy-hex (Figs 20–21).
func BenchmarkFig20(b *testing.B) {
	cfg := bench.QuickConfig()
	cfg.Trials = 1
	benchReport(b, func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "heavy-hex") })
}

// BenchmarkFig22 — E4/E5: the same comparison on Sycamore (Figs 22–23).
func BenchmarkFig22(b *testing.B) {
	cfg := bench.QuickConfig()
	cfg.Trials = 1
	benchReport(b, func() (*bench.Report, error) { return bench.RunDepthGate(cfg, "sycamore") })
}

// BenchmarkTable1 — E6: ours vs 2QAN vs QAIM.
func BenchmarkTable1(b *testing.B) {
	cfg := bench.QuickConfig()
	cfg.Trials = 1
	benchReport(b, func() (*bench.Report, error) { return bench.RunTable1(cfg) })
}

// BenchmarkTable2 — E7: the 1024-qubit comparison vs Paulihedral (scaled).
func BenchmarkTable2(b *testing.B) {
	cfg := bench.QuickConfig()
	cfg.Trials = 1
	benchReport(b, func() (*bench.Report, error) { return bench.RunTable2(cfg) })
}

// BenchmarkTable3 — E8: 2-local Hamiltonian benchmarks vs 2QAN.
func BenchmarkTable3(b *testing.B) {
	cfg := bench.QuickConfig()
	benchReport(b, func() (*bench.Report, error) { return bench.RunTable3(cfg) })
}

// BenchmarkTable4 — E9: comparison with the depth-optimal (SAT-style)
// solver on small 2D grids.
func BenchmarkTable4(b *testing.B) {
	cfg := bench.QuickConfig()
	benchReport(b, func() (*bench.Report, error) { return bench.RunTable4(cfg) })
}

// BenchmarkTVD — E10: §7.4's total-variation-distance comparison on the
// simulated Mumbai device.
func BenchmarkTVD(b *testing.B) {
	cfg := bench.QuickConfig()
	benchReport(b, func() (*bench.Report, error) { return bench.RunTVD(cfg) })
}

// BenchmarkQAOAConvergence — E11: Fig 24/25 energy convergence, ours vs the
// 2QAN baseline under Nelder–Mead.
func BenchmarkQAOAConvergence(b *testing.B) {
	cfg := bench.QuickConfig()
	benchReport(b, func() (*bench.Report, error) { return bench.RunConvergence(cfg, 8, 10) })
}

// BenchmarkCompileTime — E12: Fig 26 compilation-time scaling.
func BenchmarkCompileTime(b *testing.B) {
	cfg := bench.QuickConfig()
	benchReport(b, func() (*bench.Report, error) { return bench.RunCompileTime(cfg) })
}

// BenchmarkCompile1024 exercises one full-scale compilation (the headline
// scalability claim: 1024 qubits in ~seconds).
func BenchmarkCompile1024(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale")
	}
	rng := rand.New(rand.NewSource(1))
	p := graph.GnpConnected(1024, 0.3, rng)
	a := arch.HeavyHexN(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.Depth), "depth")
		b.ReportMetric(float64(res.Metrics.CXCount), "cx")
	}
}

// BenchmarkAblationGridMerge — A1: the unified gate+SWAP (3 CX) emission of
// the structured patterns vs the separate-layers variant, on a grid clique.
func BenchmarkAblationGridMerge(b *testing.B) {
	a := arch.Grid(6, 6)
	p := graph.Complete(36)
	for i := 0; i < b.N; i++ {
		res, err := core.Compile(a, p, core.Options{Mode: core.ModeATA})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.CXCount), "cx-fused")
		b.ReportMetric(float64(res.Metrics.Depth), "depth-fused")
		// Unfused equivalent: every unified gate+SWAP (3 CX) would cost
		// 2 (gate) + 3 (SWAP) CX as separate operations.
		fusedOps := res.Circuit.GateCount()[circuit.GateZZSwap]
		b.ReportMetric(float64(res.Metrics.CXCount+2*fusedOps), "cx-unfused-equal")
	}
}

// BenchmarkAblationSnake — A2: the structured grid pattern vs the naive
// snake-line pattern on the same grid clique (cycle depth and CX; the ATA
// entry point predicts both and emits the cheaper one).
func BenchmarkAblationSnake(b *testing.B) {
	a := arch.Grid(6, 6)
	p := graph.Complete(36)
	identity := make([]int, 36)
	for i := range identity {
		identity[i] = i
	}
	for i := 0; i < b.N; i++ {
		var cg, cs swapnet.Counter
		stG := swapnet.NewStateFromMapping(a, identity, swapnet.NewEdgeSet(p))
		swapnet.GridStructuredATA(stG, arch.FullRegion(a), cg.Emit)
		stS := swapnet.NewStateFromMapping(a, identity, swapnet.NewEdgeSet(p))
		swapnet.SnakeATA(stS, arch.FullRegion(a), cs.Emit)
		if !stG.Want.Empty() || !stS.Want.Empty() {
			b.Fatal("pattern incomplete")
		}
		b.ReportMetric(float64(cg.Cycles), "cycles-structured")
		b.ReportMetric(float64(cs.Cycles), "cycles-snake")
		b.ReportMetric(float64(cg.CX), "cx-structured")
		b.ReportMetric(float64(cs.CX), "cx-snake")
	}
}

// BenchmarkAblationHybrid — A3: prediction on/off and noise-awareness
// on/off on the same workload.
func BenchmarkAblationHybrid(b *testing.B) {
	a := arch.HeavyHexN(48)
	nm := noise.Synthetic(a, 3)
	rng := rand.New(rand.NewSource(9))
	p := graph.GnpConnected(48, 0.3, rng)
	for i := 0; i < b.N; i++ {
		hy, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid, Noise: nm})
		if err != nil {
			b.Fatal(err)
		}
		gr, err := core.Compile(a, p, core.Options{Mode: core.ModeGreedy, Noise: nm})
		if err != nil {
			b.Fatal(err)
		}
		blind, err := core.Compile(a, p, core.Options{Mode: core.ModeHybrid})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(hy.Metrics.Depth), "depth-hybrid")
		b.ReportMetric(float64(gr.Metrics.Depth), "depth-noprediction")
		b.ReportMetric(hy.Metrics.LogFidelity-core.Measure(blind.Circuit, nm).LogFidelity, "logfid-gain")
	}
}

// BenchmarkStatevector measures the simulator kernel (gates/sec on 16
// qubits), the substrate of E10/E11.
func BenchmarkStatevector(b *testing.B) {
	s := sim.NewZero(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.H(i % 16)
		s.CX(i%16, (i+1)%16)
		s.ZZ(i%16, (i+3)%16, 0.3)
	}
}

// BenchmarkNelderMead measures the optimizer on an analytic objective.
func BenchmarkNelderMead(b *testing.B) {
	f := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	for i := 0; i < b.N; i++ {
		qaoa.NelderMead(f, []float64{1, 1}, 60)
	}
}
