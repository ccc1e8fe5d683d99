package swapnet

import (
	"fmt"

	"github.com/ata-pattern/ataqc/internal/arch"
)

// HasATA reports whether the architecture family has a structured
// all-to-all pattern.
func HasATA(a *arch.Arch) bool {
	switch a.Kind {
	case arch.KindLine, arch.KindGrid, arch.KindSycamore, arch.KindHexagon,
		arch.KindHeavyHex, arch.KindLattice3D:
		return true
	}
	return false
}

// NormalizeRegion grows a detected region to the minimum shape its
// family's pattern can operate on (e.g. a single Sycamore row has no
// couplings at all, so sycamore regions span at least two rows).
func NormalizeRegion(a *arch.Arch, r arch.Region) arch.Region {
	if r.UsesPath {
		if r.I1 <= r.I0 { // widen degenerate intervals
			if r.I1 < len(a.Path)-1 {
				r.I1++
			} else if r.I0 > 0 {
				r.I0--
			}
		}
		return r
	}
	grow := func() {
		if r.U1 < len(a.Units)-1 {
			r.U1++
		} else if r.U0 > 0 {
			r.U0--
		}
	}
	switch a.Kind {
	case arch.KindSycamore:
		if r.U1 == r.U0 {
			grow()
		}
	case arch.KindGrid, arch.KindHexagon, arch.KindLattice3D:
		if r.U1 == r.U0 && r.P1 == r.P0 {
			// A single cell cannot host a 2-qubit gate; widen a unit.
			if r.P1 < unitLen(a)-1 {
				r.P1++
			} else if r.P0 > 0 {
				r.P0--
			}
		}
	}
	return r
}

func unitLen(a *arch.Arch) int {
	m := 0
	for _, u := range a.Units {
		if len(u) > m {
			m = len(u)
		}
	}
	return m
}

// ATA advances st through the architecture's structured all-to-all pattern
// restricted to region, emitting every scheduled step, until all wanted
// edges residing in the region are computed (or the pattern completes).
// The worst case — a clique over the region — finishes in O(|region|)
// cycles; sparser want sets finish earlier because empty compute layers and
// exhausted phases are skipped (§5.2).
func ATA(st *State, region arch.Region, emit EmitFunc) error {
	return ATAWithCache(st, region, emit, nil)
}

// ATAWithCache is ATA accelerated by a PatternCache: the region geometry
// (normalised region, unit segments, restricted snake) is memoised per
// (architecture, region). The emitted step sequence is identical to ATA's
// for every input; a nil cache is exactly ATA.
func ATAWithCache(st *State, region arch.Region, emit EmitFunc, c *PatternCache) error {
	if st.stopped {
		return nil
	}
	if st.scr == nil {
		st.scr = scratchPool.Get().(*scratch)
		defer func() {
			scratchPool.Put(st.scr)
			st.scr = nil
		}()
	}
	if c != nil {
		region = c.structural(st.A, region).norm
	} else {
		region = NormalizeRegion(st.A, region)
	}
	switch st.A.Kind {
	case arch.KindLine:
		i0, i1 := region.I0, region.I1
		if !region.UsesPath {
			// A line's units encoding has one unit; positions are path slots.
			i0, i1 = region.P0, region.P1
		}
		if i1 >= len(st.A.Path) {
			i1 = len(st.A.Path) - 1
		}
		linear(st, [][]int{st.A.Path[i0 : i1+1]}, linearOpts{}, emit)
	case arch.KindGrid:
		// The unit-structured pattern and the boustrophedon snake are both
		// linear-depth on a grid; which constant wins depends on the region
		// shape and want density (the snake is all unified ops, the
		// structured one parallelises bipartite layers). Predict both and
		// emit the cheaper (cycle depth, then CX).
		gridDual(st, region, emit, c)
	case arch.KindSycamore:
		sycamoreATA(st, region, emit)
	case arch.KindHexagon:
		hexagonATA(st, region, emit)
	case arch.KindHeavyHex:
		heavyHexATA(st, region, emit)
	case arch.KindLattice3D:
		snakeATA(st, region, emit, c)
	default:
		return fmt.Errorf("swapnet: no structured pattern for %s architecture", st.A.Kind)
	}
	return nil
}

// snakeBeatsGrid is the grid pattern selection rule: the snake wins only
// when it completed the region and is strictly cheaper (cycle depth, then
// CX) or the structured pattern left work behind.
func snakeBeatsGrid(stG, stS *State, cg, cs Counter) bool {
	return stS.Want.Empty() && (!stG.Want.Empty() || cs.Cycles < cg.Cycles ||
		(cs.Cycles == cg.Cycles && cs.CX < cg.CX))
}

// gridDual runs the grid dual prediction over the normalised region and
// lands the winner on st. The candidates run on scratch copies of st under
// pricers that count them, and under st.Bound a copy stops as soon as its
// shadow has lost. The snake runs first:
//
//   - if it has not lost, the decision is the full dual's: when the snake
//     leaves wanted edges behind the structured pattern wins whatever it
//     does, so it runs on st itself; otherwise the structured pattern runs
//     on a copy that stops once its cycles exceed the snake's, since
//     snakeBeatsGrid can then only pick the snake;
//   - if it has lost, the structured pattern runs under the Bound too.
//     When both have lost, the one with the lower cost at its loss wins.
//     When only the snake has lost it must be run out, unbounded, to apply
//     snakeBeatsGrid: capped at the structured pattern's cycles when that
//     pattern emptied the want set, as only a snake within them can win
//     then.
//
// A winner priced under the Bound is taken (see take): its shadow holds
// the sums emitting its steps would leave, and a lost shadow stops st
// where emitting them would. Any other winner runs again on st. So a
// bounded dual lands the full dual's winner whenever the sink never
// stops, and otherwise a prefix of a candidate whose cost has reached the
// bound.
func gridDual(st *State, region arch.Region, emit EmitFunc, c *PatternCache) {
	stS, rs := st.candidate(1, region, c, st.Bound, -1)
	if !rs.lost {
		if !stS.Want.Empty() {
			gridATA(st, region, emit, c)
			return
		}
		stG, rg := st.candidate(0, region, c, nil, rs.c.Cycles)
		switch {
		case !stG.stopped && !snakeBeatsGrid(stG, stS, rg.c, rs.c):
			gridATA(st, region, emit, c)
		case st.Bound != nil:
			st.take(stS, rs)
		default:
			snakeATA(st, region, emit, c)
		}
		return
	}
	stG, rg := st.candidate(0, region, c, st.Bound, -1)
	if rg.lost {
		if rs.cost <= rg.cost {
			st.take(stS, rs)
		} else {
			st.take(stG, rg)
		}
		return
	}
	maxCycles := -1
	if stG.Want.Empty() {
		maxCycles = rg.c.Cycles
	}
	stS, rs = st.candidate(1, region, c, nil, maxCycles)
	if !stS.stopped && snakeBeatsGrid(stG, stS, rg.c, rs.c) {
		snakeATA(st, region, emit, c)
	} else {
		st.take(stG, rg)
	}
}

// candidate runs one grid dual candidate, the structured pattern (k = 0)
// or the snake (k = 1), on scratch copy k of st under pricer k. The copy
// stops once its cycles exceed maxCycles (< 0: never) or, under a non-nil
// bound, once its shadow in slot k has lost.
func (st *State) candidate(k int, region arch.Region, c *PatternCache, bound Bound, maxCycles int) (*State, *pricer) {
	f, r := st.priced(k, bound, maxCycles)
	if k == 1 {
		snakeATA(f, region, r.emit, c)
	} else {
		gridATA(f, region, r.emit, c)
	}
	return f, r
}

// priced makes scratch copy k of st with pricer k as its sink, which stops
// the copy once its cycles exceed maxCycles (< 0: never) or, under a
// non-nil bound, once its shadow in slot k has lost. The copy counts its
// line runs' rounds into the pricer when st counts them into Rounds.
func (st *State) priced(k int, bound Bound, maxCycles int) (*State, *pricer) {
	f := st.fork(k)
	r := &st.scr.cands[k]
	*r = pricer{stop: f, maxCycles: maxCycles, bound: bound, slot: k}
	if bound != nil {
		bound.Reset(k)
	}
	f.Rounds, f.cand = st.Rounds, r
	return f, r
}

// take lands the candidate run on copy f under pricer r, priced under
// st's Bound, on st: the Bound takes its shadow as the sink's running
// sums, and st then stops if the shadow lost and otherwise takes over f's
// state. The shadow started from the sums emitting the candidate's steps
// would start from and added the same terms in the same order, so taking
// it leaves the sums bit for bit, and a lost shadow is a run the sink
// stops at the step where it lost.
func (st *State) take(f *State, r *pricer) {
	r.bound.Take(r.slot)
	if r.lost {
		st.Stop()
		return
	}
	f.copyTo(st)
}

// pricer is a grid dual candidate's sink on scratch copy stop: it counts
// the copy's steps and counted rounds in c, and stops the copy once the
// counted cycles exceed maxCycles (if maxCycles >= 0) or once bound
// reports slot's shadow lost; lost and cost then hold that loss and the
// shadow's cost at it. It keeps no step.
type pricer struct {
	c         Counter
	stop      *State
	maxCycles int
	bound     Bound
	slot      int
	lost      bool
	cost      float64
}

func (r *pricer) emit(s Step) {
	r.c.Emit(s)
	r.checkCycles()
	if r.bound != nil {
		r.price(r.bound.Add(r.slot, s))
	}
}

// round counts a counted round of cx CX: one cycle, priced in the bound's
// shadow through the stop State's Rounds sink.
func (r *pricer) round(cx int) {
	r.c.Steps++
	r.c.Cycles++
	r.c.CX += cx
	r.checkCycles()
	if r.bound != nil {
		r.price(r.stop.Rounds.AddRound(r.slot, cx))
	}
}

// checkCycles stops the stop State once the counted cycles exceed
// maxCycles.
func (r *pricer) checkCycles() {
	if r.maxCycles >= 0 && r.c.Cycles > r.maxCycles {
		r.stop.Stop()
	}
}

// price takes the shadow's cost after a step or round, and stops the stop
// State when it has lost.
func (r *pricer) price(cost float64, lost bool) {
	if r.cost, r.lost = cost, lost; lost {
		r.stop.Stop()
	}
}

// GridStructuredATA runs the unit-structured grid pattern (§3.1 + App. A)
// unconditionally — exported for the A2 ablation, which compares it against
// SnakeATA; ATA itself picks the cheaper of the two per region.
func GridStructuredATA(st *State, region arch.Region, emit EmitFunc) {
	gridATA(st, NormalizeRegion(st.A, region), emit, nil)
}

// SnakeATA runs the linear pattern over the architecture's Hamiltonian
// snake (grid, line, 3D lattice) — exported for the A2 ablation.
func SnakeATA(st *State, region arch.Region, emit EmitFunc) {
	snakeATA(st, NormalizeRegion(st.A, region), emit, nil)
}

// Counter is an EmitFunc sink that accumulates the metrics the hybrid
// compiler's predictor needs (§6.3) without materialising a circuit.
type Counter struct {
	Cycles int // pattern cycle depth (Step.Depth sums)
	Steps  int // steps emitted
	Gates  int // program gates scheduled
	Fused  int // of which unified with a SWAP
	Swaps  int // bare SWAP gates
	CX     int // total CX after decomposition
}

// Emit implements EmitFunc.
func (c *Counter) Emit(s Step) {
	c.Steps++
	c.Cycles += s.Depth()
	for _, g := range s.Compute {
		c.Gates++
		if g.Fused {
			c.Fused++
			c.CX += 3
		} else {
			c.CX += 2
		}
	}
	for _, l := range s.Swaps {
		c.Swaps += len(l)
		c.CX += 3 * len(l)
	}
}
