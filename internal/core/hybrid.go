package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/swapnet"
)

// checkpoint is a greedy-compilation branch point: the circuit prefix and
// mapping after a cycle in which SWAPs changed the placement.
type checkpoint struct {
	prefixLen int   // gates of the greedy circuit included
	l2p       []int // mapping at that point
	cycle     int   // greedy scheduler cycles consumed
}

// compileHybrid is the full framework of Fig 18: greedy processing with ATA
// pattern prediction at mapping changes, then the compiled-circuits
// selector. The budget governs both phases: an exhausted budget during
// greedy processing falls to the pure-ATA rung of the degradation ladder;
// exhaustion during prediction truncates the candidate pool and selects
// among what was evaluated so far (pure greedy and prefix-0 pure ATA are
// candidates from the start, so a valid circuit always exists).
func compileHybrid(a *arch.Arch, problem *graph.Graph, initial []int, opts Options, bud *budget, rec *recorder) (*Result, error) {
	// --- Greedy processing, recording decimated checkpoints. ---
	var cps []checkpoint
	stride := 1
	gph := rec.phase("greedy")
	var (
		g   *greedy.Result
		err error
	)
	obs.PhaseLabel(bud.ctx, "greedy", func(context.Context) {
		g, err = greedy.Compile(a, problem, initial, greedy.Options{
			Noise:          opts.Noise,
			CrosstalkAware: opts.CrosstalkAware,
			Angle:          opts.Angle,
			Interrupt:      interruptOf(bud),
			Obs:            rec.tr,
			ObsSpan:        gph.span,
			Checkpoint: func(prefixLen int, l2p []int, cycle int) {
				if cycle%stride != 0 {
					return
				}
				cps = append(cps, checkpoint{prefixLen: prefixLen, l2p: l2p, cycle: cycle})
				if len(cps) > 2*opts.MaxPredictions {
					// Decimate: keep every other checkpoint, double the stride.
					kept := cps[:0]
					for i := 0; i < len(cps); i += 2 {
						kept = append(kept, cps[i])
					}
					cps = kept
					stride *= 2
				}
			},
		})
	})
	gph.end()
	if err != nil {
		if degradable(err) {
			cause := fmt.Errorf("greedy scheduling aborted: %w", err)
			return degradeToATA(a, problem, initial, opts,
				degradeReasonFor("pure-ata", cause, -1, 0, bud, opts, rec), rec)
		}
		return nil, err
	}

	// The prefix-0 checkpoint makes the pure ATA solution (cc0) a selector
	// candidate, which is what guarantees Theorem 6.1.
	cps = append([]checkpoint{{prefixLen: 0, l2p: initial, cycle: 0}}, cps...)

	// --- ATA pattern prediction per checkpoint (§6.3). ---
	// The pool is governed: the budget is polled before every prediction
	// and charged with its pattern cycles. Exhaustion mid-pool keeps
	// whatever candidates were scored — the "best candidate recorded so
	// far" rung of the degradation ladder.
	h := newHybridEval(a, problem, g, opts, bud, rec)
	stats := Stats{Checkpoints: len(cps), SelectedPrefix: -1}
	var (
		best    *checkpoint
		dreason DegradeReason
	)
	pph := rec.phase("predict")
	obs.PhaseLabel(bud.ctx, "predict", func(context.Context) {
		best, dreason, err = h.predict(cps, &stats, pph.span)
	})
	pph.end()
	if err != nil {
		return nil, err
	}

	if best == nil {
		return &Result{Circuit: g.Circuit, Initial: g.Initial, Final: g.Final, Source: "greedy",
			Degraded: !dreason.IsZero(), DegradeReason: dreason, Stats: stats}, nil
	}
	stats.SelectedPrefix = best.prefixLen

	// --- Materialise the winning greedy-prefix + ATA-suffix circuit. ---
	// The State has no Bound, so every grid dual runs its candidates out
	// and the winner's steps are built into the circuit uncut.
	mph := rec.phase("materialize")
	b := circuit.NewBuilder(a, problem.N(), initial)
	var mErr error
	obs.PhaseLabel(bud.ctx, "ata", func(context.Context) {
		// Bulk replay: one copy plus a SWAP-folding pass keeps the builder's
		// mapping in lockstep without per-gate dispatch or re-validation —
		// the prefix is verified greedy output, and the assembled circuit is
		// strict-verified again before Compile returns.
		b.ReplayPrefix(h.gates[:best.prefixLen])
		want := swapnet.NewEdgeSet(problem)
		removeScheduled(want, h.gates[:best.prefixLen])
		st := swapnet.NewStateFromMapping(a, best.l2p, want)
		mErr = runATARegions(st, b, opts.Angle, opts.PatternCache, rec.tr, mph.span)
	})
	mph.end()
	if mErr != nil {
		return nil, mErr
	}
	source := "ata"
	if best.prefixLen > 0 {
		source = "hybrid"
	}
	return &Result{Circuit: b.C, Initial: b.InitialMapping(), Final: b.CurrentMapping(), Source: source,
		Degraded: !dreason.IsZero(), DegradeReason: dreason, Stats: stats}, nil
}

// hybridEval carries the selector context of the prediction pool: the
// greedy baseline metrics and the prefix sums that make per-checkpoint
// scoring O(prediction).
type hybridEval struct {
	a       *arch.Arch
	problem *graph.Graph
	opts    Options
	bud     *budget
	rec     *recorder
	gates   []circuit.Gate
	lfTab   []float64 // logFidTable of the compile
	cxPre   []int
	lfPre   []float64
	oCycles int
	oCX     int
	oLF     float64
}

// newHybridEval builds the selector context of greedy result g: prefix
// sums of CX and log-fidelity over its circuit, and its totals as the
// pure-greedy baseline.
func newHybridEval(a *arch.Arch, problem *graph.Graph, g *greedy.Result, opts Options, bud *budget, rec *recorder) *hybridEval {
	gates := g.Circuit.Gates
	h := &hybridEval{
		a: a, problem: problem, opts: opts, bud: bud, rec: rec, gates: gates,
		lfTab: logFidTable(a, opts.Noise),
		cxPre: make([]int, len(gates)+1), lfPre: make([]float64, len(gates)+1),
		oCycles: g.Cycles,
	}
	for i, gt := range gates {
		h.cxPre[i+1] = h.cxPre[i] + gt.Kind.CXCost()
		lf := 0.0
		if h.lfTab != nil && gt.Kind.TwoQubit() {
			lf = float64(gt.Kind.CXCost()) * h.lfTab[gt.Q0*a.N()+gt.Q1]
		}
		h.lfPre[i+1] = h.lfPre[i] + lf
	}
	h.oCX, h.oLF = h.cxPre[len(gates)], h.lfPre[len(gates)]
	return h
}

// score runs one ATA prediction from cp's mapping over want and
// returns the selector cost F (§6.4), charging the budget with the
// prediction's pattern cycles. ok=false means the pattern declined the
// region (the checkpoint is evaluated but is no candidate). The score is
// independent of the pattern cache's state: the cache holds only region
// geometry.
//
// The prediction is cut at the first step whose running cost reaches 1,
// the pure-greedy score: F only grows as steps are added, so such a
// checkpoint cannot win. A cut score (cut=true) is F at that step, a
// lower bound of the full F; the charge is the pattern cycles simulated
// up to it. A checkpoint whose full F is below 1 is never cut, and its F
// is exactly the uncut one. The grid dual's candidates are priced by the
// same rule while they run (the predictor is the State's Bound). Without
// noise the predictor also takes line runs as counted rounds (it is the
// State's Rounds sink), which fold into the same sums.
func (p *predictor) score(cp checkpoint, want *swapnet.EdgeSet) (f float64, ok, cut bool) {
	h := p.h
	st := swapnet.NewStateFromMapping(h.a, cp.l2p, want)
	p.cp, p.st, p.done, p.cur, p.straggler = cp, st, prediction{}, prediction{}, false
	st.Bound = p
	if h.lfTab == nil {
		st.Rounds = p
	}
	if err := p.run(); err != nil {
		return 0, false, false
	}
	h.bud.charge(p.done.cycles)
	return p.cost(p.done), true, st.Stopped()
}

// predict is the hybrid prediction engine: every checkpoint's ATA
// prediction is independent (each works on its own State), so they run on
// a pool of Options.Workers goroutines sharing one pattern cache, and the
// cheapest candidate is selected (§6.4). Determinism is by construction:
//
//   - one feeder walks the checkpoints in ascending prefix order, deriving
//     each want set from the previous one minus the program gates of the
//     prefix delta, and clones it only when it feeds that job — so at most
//     Workers+1 clones are live;
//   - each job's result lands in its checkpoint's slot, and selection scans
//     the slots in ascending order with a strict-less comparison, so ties
//     break the same way for every worker count;
//   - scores are cache-independent — the cache holds only region
//     geometry;
//   - budget charges are commutative atomic adds, so WorkUnits does not
//     depend on the schedule whenever every checkpoint is evaluated.
//
// Under an exhausting budget the first worker to observe exhaustion stops
// the feeder; completed scores still participate in selection (the "best
// candidate so far" rung of the degradation ladder). With one worker the
// truncation point is deterministic; with more it depends on timing.
// Non-degradable interruption (context cancellation) aborts with the error
// after every worker has exited — the pool never leaks goroutines.
//
// Observability: each worker gets its own span (and exporter lane), every
// prediction a "predictATA" child span, and each job's queue wait (feed to
// pick-up) and run time land in the pool.queue_wait_us / pool.run_us
// histograms and the Timeline's per-checkpoint entries.
func (h *hybridEval) predict(cps []checkpoint, stats *Stats, parent *obs.Span) (best *checkpoint, dreason DegradeReason, err error) {
	type job struct {
		i    int // index into cps and timings
		want *swapnet.EdgeSet
		fed  time.Time
	}
	timings := make([]CheckpointTiming, len(cps))
	met := h.rec.tr.Metrics()
	waitHist := met.Histogram("pool.queue_wait_us")
	runHist := met.Histogram("pool.run_us")
	cuts := met.Counter("core.predict.cut")
	var (
		wg       sync.WaitGroup
		stopOnce sync.Once
		mu       sync.Mutex
		firstErr error
	)
	stop := make(chan struct{})
	jobs := make(chan job)
	for w := 1; w <= min(h.opts.Workers, len(cps)); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs.WorkerLabel(h.bud.ctx, w, func(context.Context) {
				wspan := h.rec.tr.StartSpan(parent, "worker", obs.Int("worker", w))
				wspan.SetLane(w)
				defer wspan.End()
				p := h.newPredictor()
				for j := range jobs {
					pick := h.rec.clock.Now()
					if berr := h.bud.interrupt(); berr != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = berr
						}
						mu.Unlock()
						stopOnce.Do(func() { close(stop) })
						return
					}
					cp := cps[j.i]
					sp := h.rec.tr.StartSpan(wspan, "predictATA",
						obs.Int("prefix", cp.prefixLen), obs.Int("cycle", cp.cycle))
					f, ok, cut := p.score(cp, j.want)
					end := h.rec.clock.Now()
					sp.SetAttrs(obs.F64("cost", f), obs.Bool("scored", ok), obs.Bool("cut", cut))
					sp.End()
					if cut {
						cuts.Add(1)
					}
					wait, run := pick.Sub(j.fed), end.Sub(pick)
					waitHist.Observe(wait.Microseconds())
					runHist.Observe(run.Microseconds())
					timings[j.i] = CheckpointTiming{
						Prefix: cp.prefixLen, Cycle: cp.cycle,
						Worker: w, Wait: wait, Run: run,
						Cost: f, Scored: ok, Cut: cut, Evaluated: true,
					}
				}
			})
		}(w)
	}
	want := swapnet.NewEdgeSet(h.problem)
	prev := 0
feed:
	for i, cp := range cps {
		removeScheduled(want, h.gates[prev:cp.prefixLen])
		prev = cp.prefixLen
		if want.Empty() {
			continue
		}
		select {
		case jobs <- job{i: i, want: want.Clone(), fed: h.rec.clock.Now()}:
		case <-stop:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Selection: ascending checkpoint order, strict-less. The timeline
	// keeps the same order, so phase breakdowns are comparable across runs
	// regardless of which worker ran which job.
	bestF := 1.0 // pure greedy: fD/oD = 1 and fidelity ratio = 1
	for i, ct := range timings {
		if !ct.Evaluated {
			continue
		}
		h.rec.tl.Checkpoints = append(h.rec.tl.Checkpoints, ct)
		if !ct.Scored {
			continue
		}
		stats.Predictions++
		if ct.Cost < bestF {
			bestF = ct.Cost
			best = &cps[i]
		}
	}
	if firstErr != nil {
		if !degradable(firstErr) {
			return nil, DegradeReason{}, firstErr
		}
		dreason = degradeReasonFor("best-so-far", firstErr, len(h.rec.tl.Checkpoints), len(cps), h.bud, h.opts, h.rec)
	}
	return best, dreason, nil
}

// removeScheduled removes from want the program edges the given greedy
// gates schedule.
func removeScheduled(want *swapnet.EdgeSet, gates []circuit.Gate) {
	for _, g := range gates {
		if g.Kind == circuit.GateZZ || g.Kind == circuit.GateZZSwap {
			want.Remove(g.Tag)
		}
	}
}

// prediction aggregates the ATA completion estimate over the detected
// regions: regions are disjoint so their cycle counts run in parallel (max)
// while gate costs add up.
type prediction struct {
	cycles int
	cx     int
	logFid float64
}

// predictor is one checkpoint's ATA prediction and the sink of its
// patterns. It sums each region's cycles, CX and log-fidelity (each gate
// contributes its CX count times its pair's logFidTable entry) into cur,
// folds finished regions into done, and after every step stops st once
// the running selector cost reaches 1. As st's swapnet.Bound it prices the
// grid dual's candidates the same way in shadow, one per scratch slot.
//
// A predictor scores one checkpoint at a time and keeps its region buffers
// from one to the next, so each prediction worker has its own.
type predictor struct {
	h         *hybridEval
	cp        checkpoint
	st        *swapnet.State
	nPhys     int
	done, cur prediction
	shadow    [2]prediction
	straggler bool // cur is the full-device pass after the regions
	regions   regionBuf
}

// newPredictor returns a predictor of h's checkpoints.
func (h *hybridEval) newPredictor() *predictor { return &predictor{h: h, nPhys: h.a.N()} }

// run predicts every detected region, then a full-device pass over the
// edges the regions left, until the sink stops st. done holds the
// prediction (a partial one when cut).
func (p *predictor) run() error {
	st, c := p.st, p.h.opts.PatternCache
	for _, r := range detectRegions(st, &p.regions) {
		p.cur = prediction{}
		if err := swapnet.ATAWithCache(st, r, p.emit, c); err != nil {
			return err
		}
		p.done = p.fold(p.cur)
		if st.Stopped() {
			return nil
		}
	}
	if !st.Want.Empty() {
		p.cur, p.straggler = prediction{}, true
		if err := swapnet.ATAWithCache(st, arch.FullRegion(st.A), p.emit, c); err != nil {
			return err
		}
		p.done = p.fold(p.cur)
	}
	return nil
}

// fold folds a pass's sums into the finished regions: cycles run in
// parallel with the regions (max) but after them in the straggler pass
// (sum), gate costs add up. The additions are those of the final fold, so
// a prediction that is never cut yields exactly its uncut totals.
func (p *predictor) fold(cur prediction) prediction {
	out := prediction{cycles: max(p.done.cycles, cur.cycles), cx: p.done.cx + cur.cx, logFid: p.done.logFid + cur.logFid}
	if p.straggler {
		out.cycles = p.done.cycles + cur.cycles
	}
	return out
}

// cost is the selector cost of the checkpoint completed by pc.
func (p *predictor) cost(pc prediction) float64 {
	h := p.h
	return selectorCost(h.opts, p.cp.cycle+pc.cycles, h.oCycles,
		h.cxPre[p.cp.prefixLen]+pc.cx, h.oCX, h.lfPre[p.cp.prefixLen]+pc.logFid, h.oLF)
}

// emit counts one step and stops st once the running cost reaches 1.
// Every term it adds has one sign — cycles and CX only grow, and each
// log-fidelity term is a log1p(-err) ≤ 0 — and IEEE rounding is monotone,
// so the running cost never exceeds the final one: a stopped checkpoint
// would have scored at least 1.
func (p *predictor) emit(s swapnet.Step) {
	if _, lost := p.add(&p.cur, s); lost {
		p.st.Stop()
	}
}

// Reset implements swapnet.Bound: slot k's shadow starts from the current
// pass's sums.
func (p *predictor) Reset(k int) { p.shadow[k] = p.cur }

// Add implements swapnet.Bound: it folds s into slot k's shadow exactly as
// emit folds it into the current pass, so the shadow's cost is bit for bit
// the running cost emitting the same steps would reach.
func (p *predictor) Add(k int, s swapnet.Step) (float64, bool) { return p.add(&p.shadow[k], s) }

// Take implements swapnet.Bound: slot k's shadow becomes the current
// pass's sums.
func (p *predictor) Take(k int) { p.cur = p.shadow[k] }

// AddRound implements swapnet.RoundSink for a noise-free predictor: it
// folds a counted round of one cycle and cx CX into the current pass
// (k < 0) or slot k's shadow, with add's additions for such a step.
func (p *predictor) AddRound(k, cx int) (float64, bool) {
	cur := &p.cur
	if k >= 0 {
		cur = &p.shadow[k]
	}
	cur.cycles++
	cur.cx += cx
	return p.running(cur)
}

// add sums step s into pass sums cur and returns the running cost with cur
// as the current pass, and whether it has reached 1.
func (p *predictor) add(cur *prediction, s swapnet.Step) (float64, bool) {
	lfTab := p.h.lfTab
	cur.cycles += s.Depth()
	for _, g := range s.Compute {
		n := 2
		if g.Fused {
			n = 3
		}
		cur.cx += n
		if lfTab != nil {
			cur.logFid += float64(n) * lfTab[g.P*p.nPhys+g.Q]
		}
	}
	for _, l := range s.Swaps {
		cur.cx += 3 * len(l)
		if lfTab != nil {
			for _, e := range l {
				cur.logFid += 3 * lfTab[e.U*p.nPhys+e.V]
			}
		}
	}
	return p.running(cur)
}

// running returns the running cost with pass sums cur as the current pass,
// and whether it has reached 1.
func (p *predictor) running(cur *prediction) (float64, bool) {
	f := p.cost(p.fold(*cur))
	return f, f >= 1
}

// logFidTable returns log1p(-err) of every coupled physical pair (p, q),
// at p*N+q in both orientations, or nil without a noise model. Every
// two-qubit gate the greedy scheduler and the patterns emit sits on a
// coupling, so prediction reads this table instead of the model's map.
func logFidTable(a *arch.Arch, m *noise.Model) []float64 {
	if m == nil {
		return nil
	}
	n := a.N()
	tab := make([]float64, n*n)
	for _, e := range a.G.Edges() {
		lf := math.Log1p(-m.EdgeError(e.U, e.V))
		tab[e.U*n+e.V], tab[e.V*n+e.U] = lf, lf
	}
	return tab
}

// selectorCost is the cost F of §6.4: alpha weighs normalised depth, and
// (1-alpha) a fidelity ratio — log-fidelity ratio under a noise model,
// CX-count ratio otherwise. Smaller is better; pure greedy scores exactly 1.
func selectorCost(opts Options, cycles, oCycles, cx, oCX int, lf, oLF float64) float64 {
	if oCycles == 0 {
		oCycles = 1
	}
	depthTerm := float64(cycles) / float64(oCycles)
	var fidTerm float64
	if opts.Noise != nil && oLF < 0 {
		fidTerm = lf / oLF // both negative; <1 means candidate loses less fidelity
	} else {
		if oCX == 0 {
			oCX = 1
		}
		fidTerm = float64(cx) / float64(oCX)
	}
	return opts.Alpha*depthTerm + (1-opts.Alpha)*fidTerm
}
