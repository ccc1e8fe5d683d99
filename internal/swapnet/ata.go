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

// ATAWithCache is ATA accelerated by a PatternCache: region geometry is
// memoised, and on grids the dual prediction (unit-structured vs snake) is
// run once per distinct (region, mapping, want) state — the clone runs'
// recorded steps are replayed for the winner instead of executing the
// pattern a third time, and a repeat invocation from the same state (the
// hybrid compiler re-materialises the winning candidate it already scored)
// runs only the winning pattern. The emitted step sequence is identical to
// ATA's for every input; a nil cache is exactly ATA.
func ATAWithCache(st *State, region arch.Region, emit EmitFunc, c *PatternCache) error {
	if st.scr == nil {
		st.scr = scratchPool.Get().(*scratch)
		defer func() {
			scratchPool.Put(st.scr)
			st.scr = nil
		}()
	}
	var ri *regionInfo
	if c != nil {
		ri = c.structural(st.A, region)
		region = ri.norm
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
		// structured one parallelises bipartite layers). Predict both on
		// clones and emit the cheaper (cycle depth, then CX).
		if c != nil {
			gridATACached(st, ri, emit, c)
			return nil
		}
		var cg, cs Counter
		stG := st.fork(0)
		gridATA(stG, region, cg.Emit, nil)
		stS := st.fork(1)
		snakeATA(stS, region, cs.Emit, nil)
		if snakeBeatsGrid(stG, stS, cg, cs) {
			snakeATA(st, region, emit, nil)
		} else {
			gridATA(st, region, emit, nil)
		}
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

// gridATACached runs the grid dual prediction through the cache: a choice
// hit executes only the winning pattern; a miss predicts both on copies
// (recording steps), takes over the winner's final state, replays its
// steps, and memoises the decision with its counts.
func gridATACached(st *State, ri *regionInfo, emit EmitFunc, c *PatternCache) {
	fp := st.A.Fingerprint()
	occ, want := ri.stateHash(st)
	if ch, ok := c.choiceGet(fp, ri.norm, occ, want); ok {
		if ch.snake {
			snakeATA(st, ri.norm, emit, c)
		} else {
			gridATA(st, ri.norm, emit, c)
		}
		return
	}
	b := st.scratch()
	rg, rs := &b.recs[0], &b.recs[1]
	rg.reset()
	rs.reset()
	stG := st.fork(0)
	gridATA(stG, ri.norm, rg.emit, c)
	stS := st.fork(1)
	snakeATA(stS, ri.norm, rs.emit, c)
	snake := snakeBeatsGrid(stG, stS, rg.c, rs.c)
	winner, rec := stG, rg
	if snake {
		winner, rec = stS, rs
	}
	winner.copyTo(st)
	for _, s := range rec.steps {
		emit(s)
	}
	c.choicePut(fp, ri.norm, occ, want, &gridChoice{snake: snake, counts: rec.c})
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
