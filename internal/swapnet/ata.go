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
// emits the winner's steps. The candidates run on scratch copies of st,
// recording their steps, and the winner's final state becomes st's while
// its recorded steps are replayed. Under st.Bound a copy stops as soon as
// its shadow has lost. The snake runs first:
//
//   - if it has not lost, the decision is the full dual's: when the snake
//     leaves wanted edges behind the structured pattern wins whatever it
//     does, so it runs on st itself; otherwise the structured pattern runs
//     on a copy that stops once its cycles exceed the snake's, since
//     snakeBeatsGrid can then only pick the snake;
//   - if it has lost, the structured pattern runs under the Bound too.
//     When both have lost, the one with the lower cost at its loss is
//     replayed and the sink stops st at that step. When only the snake
//     has lost it must be run out, unbounded, to apply snakeBeatsGrid:
//     capped at the structured pattern's cycles when that pattern emptied
//     the want set, as only a snake within them can win then.
//
// Replaying a lost candidate makes the sink stop st at the step where its
// shadow lost, so a bounded dual emits a prefix of the full dual's winner
// whenever the sink never stops, and otherwise a prefix of a candidate
// whose cost has reached the bound.
func gridDual(st *State, region arch.Region, emit EmitFunc, c *PatternCache) {
	stS, rs := st.candidate(1, region, c, st.Bound, -1)
	if !rs.lost {
		if !stS.Want.Empty() {
			gridATA(st, region, emit, c)
			return
		}
		stG, rg := st.candidate(0, region, c, nil, rs.c.Cycles)
		if stG.stopped || snakeBeatsGrid(stG, stS, rg.c, rs.c) {
			st.replay(stS, rs, emit)
		} else {
			st.replay(stG, rg, emit)
		}
		return
	}
	stG, rg := st.candidate(0, region, c, st.Bound, -1)
	if rg.lost {
		if rs.cost <= rg.cost {
			st.replay(stS, rs, emit)
		} else {
			st.replay(stG, rg, emit)
		}
		return
	}
	maxCycles := -1
	if stG.Want.Empty() {
		maxCycles = rg.c.Cycles
	}
	stS, rs = st.candidate(1, region, c, nil, maxCycles)
	if !stS.stopped && snakeBeatsGrid(stG, stS, rg.c, rs.c) {
		st.replay(stS, rs, emit)
	} else {
		st.replay(stG, rg, emit)
	}
}

// candidate runs one grid dual candidate, the structured pattern (k = 0)
// or the snake (k = 1), on scratch copy k of st and records its steps in
// recorder k. The copy stops once its cycles exceed maxCycles (< 0: never)
// or, under a non-nil bound, once its shadow in slot k has lost.
func (st *State) candidate(k int, region arch.Region, c *PatternCache, bound Bound, maxCycles int) (*State, *stepRecorder) {
	f, r := st.record(k, bound, maxCycles)
	if k == 1 {
		snakeATA(f, region, r.emit, c)
	} else {
		gridATA(f, region, r.emit, c)
	}
	return f, r
}

// record makes scratch copy k of st with recorder k as its sink, which
// stops the copy once its cycles exceed maxCycles (< 0: never) or, under
// a non-nil bound, once its shadow in slot k has lost. The copy counts its
// line runs' rounds into the recorder when st counts them into Rounds.
func (st *State) record(k int, bound Bound, maxCycles int) (*State, *stepRecorder) {
	f := st.fork(k)
	r := &st.scr.recs[k]
	r.reset(f, maxCycles, bound, k)
	f.Rounds, f.rec = st.Rounds, r
	return f, r
}

// replay takes over winner's final state and emits its recorded steps,
// and folds its counted rounds into st's Rounds sink, until the sink stops
// st.
func (st *State) replay(winner *State, rec *stepRecorder, emit EmitFunc) {
	winner.copyTo(st)
	for i, s := range rec.steps {
		if st.stopped {
			return
		}
		if cx := rec.counted[i]; cx > 0 {
			st.countRound(cx)
		} else {
			emit(s)
		}
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
