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
// memoised, and on grids the dual prediction (unit-structured vs snake)
// is run once per distinct (region, mapping, want) state — a repeat
// invocation from the same state (the hybrid compiler re-materialises the
// winning candidate it already scored) runs only the winning pattern. The
// emitted step sequence is identical to ATA's for every input; a nil
// cache is exactly ATA.
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
		// structured one parallelises bipartite layers). Predict both and
		// emit the cheaper (cycle depth, then CX).
		gridDual(st, region, ri, emit, c)
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
// emits the winner's steps. With a cache (ri is then the region's entry)
// a memoised choice runs only the winning pattern. Otherwise the snake
// runs first, on a copy of st, recording its steps:
//
//   - if it leaves wanted edges behind, the structured pattern wins
//     whatever it does, so it runs on st itself;
//   - if not, the structured pattern runs on a second copy and is
//     stopped as soon as its cycles exceed the snake's, since
//     snakeBeatsGrid can then only pick the snake. The winner's final
//     state becomes st's and its recorded steps are replayed.
//
// The choice depends only on the copies' runs, which the sink cannot
// stop, so it is memoised even when the sink stops st.
func gridDual(st *State, region arch.Region, ri *regionInfo, emit EmitFunc, c *PatternCache) {
	var fp, occ, want uint64
	if c != nil {
		fp = st.A.Fingerprint()
		occ, want = ri.stateHash(st)
		if snake, ok := c.choiceGet(fp, region, occ, want); ok {
			if snake {
				snakeATA(st, region, emit, c)
			} else {
				gridATA(st, region, emit, c)
			}
			return
		}
	}
	b := st.scratch()
	rs, rg := &b.recs[1], &b.recs[0]
	rs.reset(nil, 0)
	stS := st.fork(1)
	snakeATA(stS, region, rs.emit, c)
	snake := false
	if !stS.Want.Empty() {
		gridATA(st, region, emit, c)
	} else {
		stG := st.fork(0)
		rg.reset(stG, rs.c.Cycles)
		gridATA(stG, region, rg.emit, c)
		snake = stG.stopped || snakeBeatsGrid(stG, stS, rg.c, rs.c)
		if snake {
			st.replay(stS, rs, emit)
		} else {
			st.replay(stG, rg, emit)
		}
	}
	if c != nil {
		c.choicePut(fp, region, occ, want, snake)
	}
}

// replay takes over winner's final state and emits its recorded steps
// until the sink stops st.
func (st *State) replay(winner *State, rec *stepRecorder, emit EmitFunc) {
	winner.copyTo(st)
	for _, s := range rec.steps {
		if st.stopped {
			return
		}
		emit(s)
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
