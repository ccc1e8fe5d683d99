package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// regionUnits returns the unit segments of a region: for each unit index in
// [U0,U1], the physical qubits at positions [P0,P1] (clipped to the unit
// length).
func regionUnits(a *arch.Arch, r arch.Region) [][]int {
	var units [][]int
	for u := r.U0; u <= r.U1 && u < len(a.Units); u++ {
		unit := a.Units[u]
		p1 := r.P1
		if p1 >= len(unit) {
			p1 = len(unit) - 1
		}
		if r.P0 > p1 {
			continue
		}
		units = append(units, unit[r.P0:p1+1])
	}
	return units
}

// gridATA realises all-to-all interaction on a 2D grid region (§3.1 with
// the Appendix A merging optimisation): the linear pattern is replayed at
// unit granularity — R rounds of alternating-parity row pairings, where
// each pairing runs the 2xUnit bipartite pattern (Fig 8/9) and then
// exchanges the two rows through one vertical SWAP layer (Fig 5b).
//
// Intra-unit pairs need no separate phase: the bipartite pattern's
// counter-rotation performs exactly the 1xUnit odd-even swap dynamics
// inside every row, so each intra-row SWAP doubles as a unified program
// gate whenever its occupants are a wanted pair (Appendix A Optimisation
// II — "the intra-unit SWAP layers in the 2xUnit solution are the same as
// the 1xUnit solution"). Unit contents are invariant throughout (bipartite
// swaps stay within rows; exchanges move whole rows), so across the R
// rounds every group both meets every other group and fully mixes
// internally. A residual intra pass covers any pairs a short region leaves
// behind; on cliques it stays empty (tested).
//
// Total cycle depth is O(R*C) = O(n), about 25% below the separate-phase
// variant — the Appendix A depth saving.
//
// The cache parameter (nil = compute directly) memoises the region's unit
// segments so repeated predictions over the same region skip the
// decomposition.
func gridATA(st *State, region arch.Region, emit EmitFunc, c *PatternCache) {
	units := cachedRegionUnits(st.A, region, c)
	if len(units) == 0 {
		return
	}
	if len(units) == 1 {
		linear(st, units, linearOpts{}, emit)
		return
	}
	sc := newScope(st, units...)
	b := st.scratch()
	R := len(units)
	for t := 0; t < R; t++ {
		if sc.done() {
			return
		}
		pairs := b.pairs[:0]
		for u := t % 2; u+1 < R; u += 2 {
			pairs = append(pairs, [2]int{u, u + 1})
		}
		b.pairs = pairs
		if len(pairs) == 0 {
			continue
		}
		bipartiteGrid(st, units, pairs, sc, emit)
		if sc.done() || t == R-1 {
			break
		}
		// Unit exchange: one vertical SWAP layer per paired rows.
		layer := b.swaps[:0]
		for _, pr := range pairs {
			ua, ub := units[pr[0]], units[pr[1]]
			for i := 0; i < len(ua) && i < len(ub); i++ {
				st.ApplySwap(ua[i], ub[i])
				layer = append(layer, graph.NewEdge(ua[i], ub[i]))
			}
		}
		b.swaps = layer
		emit(b.step(nil, layer, false))
	}
	if !sc.done() {
		// Residual intra-unit pairs (short regions can finish the
		// unit-level rounds before every row fully mixes).
		linear(st, cachedRegionUnits(st.A, region, c), linearOpts{sc: sc}, emit)
	}
}

// cachedRegionUnits returns the region's unit segments through the cache
// when one is supplied. The cached slices alias Arch.Units and are
// read-only.
func cachedRegionUnits(a *arch.Arch, region arch.Region, c *PatternCache) [][]int {
	if c != nil {
		return c.structural(a, region).units
	}
	return regionUnits(a, region)
}

// bipartiteGrid runs the 2xUnit bipartite pattern of Fig 8/9 on every row
// pair in `pairs` simultaneously, for C cycles (C = row length): each cycle
// computes on all vertical pairs (A_i, B_i), then row A swaps its
// even-or-odd adjacent positions while row B swaps the opposite parity —
// the two rows counter-rotate so that after C cycles every (A, B) logical
// pair has been vertically aligned exactly once.
//
// All SWAPs stay within their rows, so unit contents are preserved. The
// intra-row SWAPs follow the 1xUnit odd-even dynamics, so a SWAP whose
// occupants are themselves a wanted pair becomes a unified program gate —
// the Appendix A merging optimisation that lets gridATA skip the separate
// intra-unit phase.
//
// The vertical compute layer and the intra-row swap layer touch the same
// qubits, so a step contributes up to two cycles (compute, then swaps).
func bipartiteGrid(st *State, units [][]int, pairs [][2]int, sc *scope, emit EmitFunc) {
	C := 0
	for _, pr := range pairs {
		if l := len(units[pr[0]]); l > C {
			C = l
		}
	}
	b := st.scratch()
	for cyc := 0; cyc < C; cyc++ {
		if sc.done() {
			return
		}
		start := cyc % 2
		vertical, fused, swaps := b.gates[0][:0], b.gates[1][:0], b.swaps[:0]
		for _, pr := range pairs {
			rowA, rowB := units[pr[0]], units[pr[1]]
			m := len(rowA)
			if len(rowB) < m {
				m = len(rowB)
			}
			for i := 0; i < m; i++ {
				if tag, ok := st.WantedPhys(rowA[i], rowB[i]); ok {
					vertical = append(vertical, st.emitCompute(sc, rowA[i], rowB[i], tag, false))
				}
			}
			if cyc == C-1 {
				continue // final alignment needs no further rotation
			}
			fused, swaps = st.rotateRow(sc, rowA, start, fused, swaps)
			fused, swaps = st.rotateRow(sc, rowB, 1-start, fused, swaps)
		}
		b.gates[0], b.gates[1], b.swaps = vertical, fused, swaps
		if len(vertical) > 0 {
			emit(Step{Compute: vertical})
		}
		// Fused ops and plain swaps share the layer.
		if len(fused) > 0 || len(swaps) > 0 {
			emit(b.step(fused, swaps, true))
		}
	}
}

// rotateRow performs one odd-even swap layer of row starting at parity,
// appending the SWAPs whose occupants are a wanted pair to fused (as
// unified program gates) and the rest to swaps.
func (st *State) rotateRow(sc *scope, row []int, parity int, fused []PhysGate, swaps []graph.Edge) ([]PhysGate, []graph.Edge) {
	for i := parity; i+1 < len(row); i += 2 {
		if tag, ok := st.WantedPhys(row[i], row[i+1]); ok {
			fused = append(fused, st.emitCompute(sc, row[i], row[i+1], tag, true))
		} else {
			swaps = append(swaps, graph.NewEdge(row[i], row[i+1]))
		}
		st.ApplySwap(row[i], row[i+1])
	}
	return fused, swaps
}

// snakeATA runs the linear pattern over the architecture's Hamiltonian
// snake — the simple O(n)-depth fallback the paper's structured solutions
// are compared against (and the solution used for the 3D lattice, whose
// hierarchical decomposition §3.2 only sketches). The snake restricted to
// the region rectangle stays contiguous only for some region shapes; when
// the restriction breaks, the pattern falls back to the full snake. A
// non-nil cache memoises the restriction per (arch, region).
func snakeATA(st *State, region arch.Region, emit EmitFunc, c *PatternCache) {
	snake := st.A.Snake
	if snake == nil {
		return
	}
	if !region.UsesPath && len(st.A.Units) > 0 {
		var seg []int
		var ok bool
		if c != nil {
			ri := c.structural(st.A, region)
			seg, ok = ri.snakeSeg, ri.snakeOK
		} else {
			seg, ok = restrictSnake(st.A, region)
		}
		if ok {
			linear(st, [][]int{seg}, linearOpts{}, emit)
			return
		}
	}
	linear(st, [][]int{snake}, linearOpts{}, emit)
}
