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

	// Prefix sums over the greedy circuit for O(1) per-checkpoint metrics.
	gates := g.Circuit.Gates
	cxPre := make([]int, len(gates)+1)
	lfPre := make([]float64, len(gates)+1)
	for i, gt := range gates {
		cxPre[i+1] = cxPre[i] + gt.Kind.CXCost()
		lf := 0.0
		if opts.Noise != nil && gt.Kind.TwoQubit() {
			lf = float64(gt.Kind.CXCost()) * math.Log1p(-opts.Noise.EdgeError(gt.Q0, gt.Q1))
		}
		lfPre[i+1] = lfPre[i] + lf
	}
	oCycles := g.Cycles
	oCX := cxPre[len(gates)]
	oLF := lfPre[len(gates)]

	// --- ATA pattern prediction per checkpoint (§6.3). ---
	// The pool is governed: the budget is polled before every prediction
	// and charged with its pattern cycles. Exhaustion mid-pool keeps
	// whatever candidates were scored — the "best candidate recorded so
	// far" rung of the degradation ladder.
	h := &hybridEval{
		a: a, problem: problem, opts: opts, bud: bud, rec: rec, gates: gates,
		cxPre: cxPre, lfPre: lfPre, oCycles: oCycles, oCX: oCX, oLF: oLF,
	}
	stats := Stats{Checkpoints: len(cps), SelectedPrefix: -1}
	var (
		best    *checkpoint
		dreason DegradeReason
	)
	// cs0 snapshots the counters so a cache shared across compiles reports
	// per-compile deltas.
	cache := opts.PatternCache
	cs0 := cache.Stats()
	pph := rec.phase("predict")
	obs.PhaseLabel(bud.ctx, "predict", func(context.Context) {
		best, dreason, err = h.predict(cps, &stats, pph.span)
	})
	pph.end()
	if err != nil {
		return nil, err
	}

	if best == nil {
		finishCacheStats(&stats, cache, cs0, rec)
		return &Result{Circuit: g.Circuit, Initial: g.Initial, Final: g.Final, Source: "greedy",
			Degraded: !dreason.IsZero(), DegradeReason: dreason, Stats: stats}, nil
	}
	stats.SelectedPrefix = best.prefixLen

	// --- Materialise the winning greedy-prefix + ATA-suffix circuit. ---
	// The prediction cache flows into materialisation: the winning
	// candidate's grid pattern choices were memoised while it was scored, so
	// the ATA suffix replays the recorded decisions instead of re-running
	// the dual prediction.
	mph := rec.phase("materialize")
	b := circuit.NewBuilder(a, problem.N(), initial)
	var mErr error
	obs.PhaseLabel(bud.ctx, "ata", func(context.Context) {
		// Bulk replay: one copy plus a SWAP-folding pass keeps the builder's
		// mapping in lockstep without per-gate dispatch or re-validation —
		// the prefix is verified greedy output, and the assembled circuit is
		// strict-verified again before Compile returns.
		b.ReplayPrefix(gates[:best.prefixLen])
		want := swapnet.NewEdgeSet(problem)
		removeScheduled(want, gates[:best.prefixLen])
		st := swapnet.NewStateFromMapping(a, best.l2p, want)
		mErr = runATARegions(st, b, opts.Angle, cache, rec.tr, mph.span)
	})
	mph.end()
	if mErr != nil {
		return nil, mErr
	}
	finishCacheStats(&stats, cache, cs0, rec)
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
	cxPre   []int
	lfPre   []float64
	oCycles int
	oCX     int
	oLF     float64
}

// scoreCheckpoint runs one ATA prediction from cp's mapping over want and
// returns the selector cost F (§6.4), charging the budget with the
// prediction's pattern cycles. ok=false means the pattern declined the
// region (the checkpoint is evaluated but is no candidate). The score is
// independent of the pattern cache's state: a cached grid choice replays
// the same pattern the uncached dual prediction would pick.
func (h *hybridEval) scoreCheckpoint(cp checkpoint, want *swapnet.EdgeSet) (f float64, ok bool) {
	st := swapnet.NewStateFromMapping(h.a, cp.l2p, want)
	pc, err := predictATA(st, h.opts, h.opts.PatternCache)
	if err != nil {
		return 0, false
	}
	h.bud.charge(pc.cycles)
	cycles := cp.cycle + pc.cycles
	cx := h.cxPre[cp.prefixLen] + pc.cx
	lf := h.lfPre[cp.prefixLen] + pc.logFid
	return selectorCost(h.opts, cycles, h.oCycles, cx, h.oCX, lf, h.oLF), true
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
//   - scores are cache-independent — a cached grid choice replays exactly
//     the pattern the uncached dual prediction picks;
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
					f, ok := h.scoreCheckpoint(cp, j.want)
					end := h.rec.clock.Now()
					sp.SetAttrs(obs.F64("cost", f), obs.Bool("scored", ok))
					sp.End()
					wait, run := pick.Sub(j.fed), end.Sub(pick)
					waitHist.Observe(wait.Microseconds())
					runHist.Observe(run.Microseconds())
					timings[j.i] = CheckpointTiming{
						Prefix: cp.prefixLen, Cycle: cp.cycle,
						Worker: w, Wait: wait, Run: run,
						Cost: f, Scored: ok, Evaluated: true,
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

// finishCacheStats copies this compile's pattern-cache counter deltas
// (relative to the cs0 snapshot taken when the compile began) onto the
// stats and into the trace's metrics registry.
func finishCacheStats(stats *Stats, c *swapnet.PatternCache, cs0 swapnet.CacheStats, rec *recorder) {
	cs := c.Stats()
	stats.CacheHits, stats.CacheMisses = cs.Hits-cs0.Hits, cs.Misses-cs0.Misses
	met := rec.tr.Metrics()
	met.Counter("cache.hits").Add(stats.CacheHits)
	met.Counter("cache.misses").Add(stats.CacheMisses)
	met.Counter("cache.evictions").Add(cs.Evictions - cs0.Evictions)
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

func predictATA(st *swapnet.State, opts Options, c *swapnet.PatternCache) (prediction, error) {
	var out prediction
	for _, r := range detectRegions(st, c) {
		var cnt predictCounter
		cnt.opts = &opts
		if err := swapnet.ATAWithCache(st, r, cnt.emit, c); err != nil {
			return out, err
		}
		if cnt.cycles > out.cycles {
			out.cycles = cnt.cycles
		}
		out.cx += cnt.cx
		out.logFid += cnt.logFid
	}
	if !st.Want.Empty() {
		var cnt predictCounter
		cnt.opts = &opts
		if err := swapnet.ATAWithCache(st, arch.FullRegion(st.A), cnt.emit, c); err != nil {
			return out, err
		}
		out.cycles += cnt.cycles
		out.cx += cnt.cx
		out.logFid += cnt.logFid
	}
	return out, nil
}

type predictCounter struct {
	opts   *Options
	cycles int
	cx     int
	logFid float64
}

func (c *predictCounter) emit(s swapnet.Step) {
	c.cycles += s.Depth()
	edgeLF := func(p, q int, n int) {
		if c.opts.Noise != nil {
			c.logFid += float64(n) * math.Log1p(-c.opts.Noise.EdgeError(p, q))
		}
	}
	for _, g := range s.Compute {
		if g.Fused {
			c.cx += 3
			edgeLF(g.P, g.Q, 3)
		} else {
			c.cx += 2
			edgeLF(g.P, g.Q, 2)
		}
	}
	for _, l := range s.Swaps {
		c.cx += 3 * len(l)
		for _, e := range l {
			edgeLF(e.U, e.V, 3)
		}
	}
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
