package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// uncutScore is the oracle of predictor.score: every region's pattern runs
// to its end, uncached, and the totals fold exactly as the selector
// defines them (region cycles in parallel, the straggler pass after).
func uncutScore(h *hybridEval, cp checkpoint, want *swapnet.EdgeSet) (float64, bool) {
	st := swapnet.NewStateFromMapping(h.a, cp.l2p, want)
	var out prediction
	for _, r := range detectRegions(st, new(regionBuf)) {
		cnt := oracleCount(h, st, r)
		if cnt == nil {
			return 0, false
		}
		out.cycles = max(out.cycles, cnt.cycles)
		out.cx += cnt.cx
		out.logFid += cnt.logFid
	}
	if !st.Want.Empty() {
		cnt := oracleCount(h, st, arch.FullRegion(st.A))
		if cnt == nil {
			return 0, false
		}
		out.cycles += cnt.cycles
		out.cx += cnt.cx
		out.logFid += cnt.logFid
	}
	return selectorCost(h.opts, cp.cycle+out.cycles, h.oCycles,
		h.cxPre[cp.prefixLen]+out.cx, h.oCX, h.lfPre[cp.prefixLen]+out.logFid, h.oLF), true
}

// oracleCount runs the uncached pattern over region r and sums its steps
// the way the prediction sink does; nil when the pattern declines.
func oracleCount(h *hybridEval, st *swapnet.State, r arch.Region) *prediction {
	var c prediction
	n := h.a.N()
	err := swapnet.ATA(st, r, func(s swapnet.Step) {
		c.cycles += s.Depth()
		for _, g := range s.Compute {
			k := 2
			if g.Fused {
				k = 3
			}
			c.cx += k
			if h.lfTab != nil {
				c.logFid += float64(k) * h.lfTab[g.P*n+g.Q]
			}
		}
		for _, l := range s.Swaps {
			c.cx += 3 * len(l)
			if h.lfTab != nil {
				for _, e := range l {
					c.logFid += 3 * h.lfTab[e.U*n+e.V]
				}
			}
		}
	})
	if err != nil {
		return nil
	}
	return &c
}

// cutCase is one input of the cut-versus-uncut comparison.
type cutCase struct {
	a     *arch.Arch
	p     *graph.Graph
	alpha float64
	nm    *noise.Model
}

func (c cutCase) String() string {
	return fmt.Sprintf("%s n=%d m=%d alpha=%g noise=%v", c.a.Name, c.p.N(), c.p.M(), c.alpha, c.nm != nil)
}

// checkCutMatchesUncut scores every greedy checkpoint of c (and the
// prefix-0 pure-ATA one) with the cut scorer and the uncut oracle, and
// reports how many were cut and which checkpoint won (-1 for pure
// greedy). Both must select the same checkpoint; an
// oracle score below 1 must come back bit-identical and uncut; a cut score
// lies in [1, oracle score]; an uncut score equals the oracle's.
func checkCutMatchesUncut(t *testing.T, c cutCase) (cuts, winner int) {
	t.Helper()
	opts := Options{Workers: 1, Noise: c.nm, PatternCache: swapnet.NewPatternCache(0)}
	opts.applyDefaults()
	opts.Alpha = c.alpha // after the defaults, so 0 stays 0
	initial := greedy.InitialMapping(c.a, c.p)
	cps := []checkpoint{{prefixLen: 0, l2p: initial}}
	g, err := greedy.Compile(c.a, c.p, initial, greedy.Options{
		Noise: c.nm,
		Angle: opts.Angle,
		Checkpoint: func(prefixLen int, l2p []int, cycle int) {
			cps = append(cps, checkpoint{prefixLen: prefixLen, l2p: l2p, cycle: cycle})
		},
	})
	if err != nil {
		t.Fatalf("%v: greedy: %v", c, err)
	}
	h := newHybridEval(c.a, c.p, g, opts, newBudget(context.Background(), time.Now(), opts, nil), newRecorder(nil))
	want := swapnet.NewEdgeSet(c.p)
	pr := h.newPredictor()
	bestCut, bestOracle := -1, -1
	fCut, fOracle := 1.0, 1.0
	prev := 0
	for i, cp := range cps {
		removeScheduled(want, g.Circuit.Gates[prev:cp.prefixLen])
		prev = cp.prefixLen
		if want.Empty() {
			continue
		}
		f, ok, cut := pr.score(cp, want.Clone())
		of, ook := uncutScore(h, cp, want.Clone())
		if ok != ook {
			t.Fatalf("%v checkpoint %d: cut scorer ok=%v, oracle ok=%v", c, i, ok, ook)
		}
		if !ok {
			continue
		}
		switch {
		case of < 1 && (cut || f != of):
			t.Fatalf("%v checkpoint %d: oracle F=%v below 1, cut scorer F=%v cut=%v", c, i, of, f, cut)
		case cut && (f < 1 || f > of):
			t.Fatalf("%v checkpoint %d: cut F=%v outside [1, oracle F=%v]", c, i, f, of)
		case !cut && f != of:
			t.Fatalf("%v checkpoint %d: uncut F=%v, oracle F=%v", c, i, f, of)
		}
		if cut {
			cuts++
		}
		if f < fCut {
			fCut, bestCut = f, i
		}
		if of < fOracle {
			fOracle, bestOracle = of, i
		}
	}
	if bestCut != bestOracle {
		t.Fatalf("%v: cut scorer selects checkpoint %d, oracle %d", c, bestCut, bestOracle)
	}
	return cuts, bestCut
}

// cutFamilies builds the devices the comparison covers.
var cutFamilies = []func(n int) *arch.Arch{
	func(n int) *arch.Arch { return arch.GridN(n) },
	func(n int) *arch.Arch { return arch.HeavyHexN(n) },
	func(n int) *arch.Arch { return arch.SycamoreN(n) },
	func(n int) *arch.Arch { return arch.HexagonN(n) },
}

// cutCaseOf derives a comparison input from fuzzable parameters: device
// family and size, ER density or 3-regular graph, alpha in {0, 0.5, 1},
// and an optional synthetic noise model.
func cutCaseOf(family, size uint8, density float64, regular bool, alpha uint8, noisy bool, seed int64) cutCase {
	n := 6 + int(size)%31
	a := cutFamilies[int(family)%len(cutFamilies)](n)
	rng := rand.New(rand.NewSource(seed))
	var p *graph.Graph
	if regular && n%2 == 0 {
		p = graph.MustRandomRegular(n, 3, rng)
	} else {
		if math.IsNaN(density) || density < 0.05 || density > 1 {
			density = 0.05 + float64(uint64(seed)%96)/100
		}
		p = graph.GnpConnected(n, density, rng)
	}
	c := cutCase{a: a, p: p, alpha: []float64{0, 0.5, 1}[int(alpha)%3]}
	if noisy {
		c.nm = noise.Synthetic(a, seed)
	}
	return c
}

// TestCutScorerMatchesUncut runs the comparison over every family, graph
// kind, alpha and noise setting, and checks that it sees both cuts and
// inputs a hybrid or pure-ATA candidate wins.
func TestCutScorerMatchesUncut(t *testing.T) {
	cuts, wins := 0, 0
	for family := uint8(0); family < uint8(len(cutFamilies)); family++ {
		for alpha := uint8(0); alpha < 3; alpha++ {
			for i, regular := range []bool{false, true} {
				for _, noisy := range []bool{false, true} {
					seed := int64(family)*100 + int64(alpha)*10 + int64(i)*2 + 1
					if noisy {
						seed++
					}
					size := uint8(10 + seed%21)
					c, w := checkCutMatchesUncut(t, cutCaseOf(family, size, 0.2+float64(seed%7)/10, regular, alpha, noisy, seed))
					cuts += c
					if w >= 0 {
						wins++
					}
				}
			}
		}
	}
	t.Logf("%d checkpoints cut; a prediction won on %d inputs", cuts, wins)
	if cuts == 0 || wins == 0 {
		t.Fatalf("%d cuts, %d inputs won by a prediction: the comparison exercised too little", cuts, wins)
	}
}

// FuzzCutScorerMatchesUncut is the comparison over fuzzed inputs.
func FuzzCutScorerMatchesUncut(f *testing.F) {
	f.Add(uint8(0), uint8(30), 0.5, false, uint8(1), false, int64(1))
	f.Add(uint8(1), uint8(30), 0.3, false, uint8(1), true, int64(2))
	f.Add(uint8(2), uint8(24), 0.3, true, uint8(0), false, int64(3))
	f.Add(uint8(3), uint8(20), 0.3, false, uint8(2), true, int64(4))
	f.Fuzz(func(t *testing.T, family, size uint8, density float64, regular bool, alpha uint8, noisy bool, seed int64) {
		checkCutMatchesUncut(t, cutCaseOf(family, size, density, regular, alpha, noisy, seed))
	})
}
