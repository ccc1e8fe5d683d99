package swapnet

import (
	"math/bits"
	"slices"

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
// decomposition. On a State with a Rounds sink and rows of one length,
// the bipartite phases and unit exchanges are counted instead of
// simulated (countBipartite), as the residual line run is (countLinear).
func gridATA(st *State, region arch.Region, emit EmitFunc, c *PatternCache) {
	units := cachedRegionUnits(st.A, region, c)
	if len(units) == 0 {
		return
	}
	if len(units) == 1 {
		linear(st, units, linearOpts{}, emit)
		return
	}
	counted := st.Rounds != nil
	for _, u := range units {
		counted = counted && len(u) == len(units[0])
	}
	sc := newScope(st, units...)
	b := st.scratch()
	R := len(units)
	for t := 0; t < R; t++ {
		if st.halted(sc) {
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
		if counted {
			st.countBipartite(units, pairs, sc)
		} else {
			bipartiteGrid(st, units, pairs, sc, emit)
		}
		if st.halted(sc) || t == R-1 {
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
		if !counted {
			emit(b.step(nil, layer, false))
		} else if st.countRound(3 * len(layer)) {
			return
		}
	}
	if !st.halted(sc) {
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
		if st.halted(sc) {
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
		if (len(fused) > 0 || len(swaps) > 0) && !st.stopped {
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

// countBipartite is bipartiteGrid for a noise-free sink that takes
// counted rounds, on rows of one length L. Row A of a pair rotates on
// linear's schedule and row B one parity ahead of it, so in virtual slots
// (see countLinear) A's logicals start on even slots 2c and B's on odd
// ones 2c+1, and two logicals of one pair of rows whose slots sum to s
// first meet in cycle (L-1-s/2) mod L: a cross pair (s odd) lines up in
// that cycle, and a pair of one row (s even) meets in that cycle's
// rotation, unless the cycle is the last, which does not rotate. So:
//
//   - cycle k's compute step costs one cycle and 2 CX per wanted cross
//     pair lining up in it, and is not emitted when none does;
//   - each cycle but the last rotates, for one cycle and 3 CX per adjacent
//     pair of the two rows' parities, L-1 per pair of rows;
//   - the scope is exhausted after the latest first meeting of its pairs,
//     and never while it holds a pair that does not meet in this phase.
//
// As in countLinear, each step is folded exactly where the simulation
// emits it, a cut phase leaves st as it was, and an uncut phase removes
// the wanted pairs that met from the want set and the scope and rotates
// the rows.
func (st *State) countBipartite(units [][]int, pairs [][2]int, sc *scope) {
	b := st.scratch()
	rows := b.rows[:0]
	for _, pr := range pairs {
		rows = append(rows, units[pr[0]], units[pr[1]])
	}
	b.rows = rows
	b.startCount(st, rows, true)
	defer b.endCount(st, rows)
	L := len(rows[0])
	align := st.scanPhase(rows)
	meet := func(e graph.Edge) int {
		su, sv := b.slots[e.U], b.slots[e.V]
		if su.line < 0 || su.line != sv.line {
			return L
		}
		return phaseMeet(int(su.pos), int(sv.pos), L)
	}
	live, at, end := -1, 0, L
	for k := 0; k < L; k++ {
		for live < k {
			m, ok := st.nextMeeting(sc, &at, L, meet)
			if !ok {
				break
			}
			live = max(live, m)
		}
		if live < k {
			end = k
			break
		}
		if n := align[k]; n > 0 && st.countRound(2*n) {
			return
		}
		if k < L-1 && st.countRound(3*(L-1)*len(pairs)) {
			return
		}
	}
	st.removeScanned(rows, sc, end)
	for i, row := range rows {
		st.permuteLine(row, min(end, L-1), i%2)
	}
}

// scanPhase reads, for the logical at each position of a counted
// bipartite phase's rows, its row of the want bitset under a mask of its
// pair of rows' logicals into the scratch's near, for removeScanned. It
// buckets the cross pairs among them, the wanted pairs of an A and a B
// logical, by the cycle they line up in, which is their meeting: k's
// bucket counts those of A's half slot c and B's half slot (L-1-k-c) mod L.
func (st *State) scanPhase(rows [][]int) []int {
	b, w := st.scr, st.Want
	L, nw := len(rows[0]), (w.n+63)/64
	align := slices.Grow(b.align[:0], L)[:L]
	clear(align)
	near := slices.Grow(b.near[:0], len(rows)*L*nw)[:len(rows)*L*nw]
	masks := slices.Grow(b.masks[:0], 2*nw)[:2*nw] // zero between uses
	b.align, b.near, b.masks = align, near, masks
	for j := 0; j < len(rows); j += 2 {
		st.markLogicals(masks[:nw], rows[j])
		st.markLogicals(masks[nw:], rows[j+1])
		for s := range 2 {
			other := masks[(1-s)*nw : (2-s)*nw]
			for q, p := range rows[j+s] {
				out := near[((j+s)*L+q)*nw:][:nw]
				x := st.P2L[p]
				if x < 0 || x >= w.n {
					clear(out)
					continue
				}
				vx := int(b.slots[x].pos)
				for wi := range out {
					m := bitsAt(w.bits, x*w.n+wi<<6) & (masks[wi] | masks[nw+wi])
					out[wi] = m
					for m &= other[wi]; m != 0; m &= m - 1 {
						y := wi<<6 | bits.TrailingZeros64(m)
						align[phaseMeet(vx, int(b.slots[y].pos), L)]++
					}
				}
			}
		}
		clear(masks)
	}
	return align
}

// markLogicals sets the bits of row's logicals in mask.
func (st *State) markLogicals(mask []uint64, row []int) {
	for _, p := range row {
		if l := st.P2L[p]; l >= 0 && l < st.Want.n {
			mask[l>>6] |= 1 << (l & 63)
		}
	}
}

// phaseMeet is the cycle of a bipartite phase over rows of length L in
// which the logicals starting on virtual slots u and v of one pair of rows
// first meet, or L for a pair of one row due in the last cycle's
// rotation, which does not happen (see countBipartite).
func phaseMeet(u, v, L int) int {
	k := L - 1 - (u+v)/2
	if k < 0 {
		k += L
	}
	if k == L-1 && (u+v)%2 == 0 {
		return L
	}
	return k
}

// removeScanned removes from the want set and sc the pairs scanPhase read
// that meet before cycle end. After a whole phase (end L) that is all of
// them but each logical's partner in its own row, due in the last
// cycle's rotation: partners' virtual slots sum to 0 mod 2L, so they are
// the adjacent pairs (q-1, q) with q even in row A and q odd in row B.
func (st *State) removeScanned(rows [][]int, sc *scope, end int) {
	w, slots := st.Want, st.scr.slots
	L, nw := len(rows[0]), (w.n+63)/64
	for r, row := range rows {
		for q, p := range row {
			x := st.P2L[p]
			if x < 0 || x >= w.n {
				continue
			}
			near := st.scr.near[(r*L+q)*nw:][:nw]
			partner := q + 1
			if q%2 == r%2 {
				partner = q - 1
			}
			if end == L && partner >= 0 && partner < L {
				if y := st.P2L[row[partner]]; y >= 0 && y < w.n {
					near[y>>6] &^= 1 << (y & 63)
				}
			}
			vx := int(slots[x].pos)
			for wi, m := range near {
				for t := m; end < L && t != 0; t &= t - 1 {
					y := wi<<6 | bits.TrailingZeros64(t)
					if phaseMeet(vx, int(slots[y].pos), L) >= end {
						m &^= 1 << (y & 63)
					}
				}
				if m != 0 {
					i := x*w.n + wi<<6
					w.clearAt(i, m)
					sc.rel.clearAt(i, bitsAt(sc.rel.bits, i)&m)
				}
			}
		}
	}
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
