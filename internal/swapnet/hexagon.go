package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
)

// hexagonATA realises all-to-all interaction on a hexagon (honeycomb)
// region (§3.2.2). Units are the vertical columns. Two adjacent columns c
// and c+1 are linked at the rows r with (r+c) even; together with the
// intra-column couplings they admit a U-shaped Hamiltonian path — down one
// column, across the end rung, up the other — whenever the row range ends
// on a rung row. Running the 1xUnit linear pattern over that 2R-qubit path
// covers every pair among the two columns' occupants, and the pattern's
// order reversal exchanges the columns' contents exactly (the first R path
// slots are one column and the last R the other). As with Sycamore, the
// pairing is simultaneously the interaction and the unit exchange of the
// column-level transposition network, so C alternating-parity rounds
// complete the clique in O(R*C) cycles.
//
// The row range is normalised to even height so that every column pair has
// a rung at exactly one of its two ends ((p0+c) and (p1+c) then differ in
// parity).
func hexagonATA(st *State, region arch.Region, emit EmitFunc) {
	a := st.A
	if region.U1 <= region.U0 {
		// Single column: it is a line; run the linear pattern directly.
		if region.U0 < len(a.Units) {
			seg := clipUnit(a.Units[region.U0], region.P0, region.P1)
			linear(st, [][]int{seg}, linearOpts{}, emit)
		}
		return
	}
	// Normalise to even height.
	p0, p1 := region.P0, region.P1
	if p1 >= unitLen(a) {
		p1 = unitLen(a) - 1
	}
	if (p1-p0+1)%2 != 0 {
		if p1 < unitLen(a)-1 {
			p1++
		} else if p0 > 0 {
			p0--
		}
	}
	b := st.scratch()
	all := b.qubits[:0]
	for u := region.U0; u <= region.U1; u++ {
		all = append(all, clipUnit(a.Units[u], p0, p1)...)
	}
	b.qubits = all
	sc := newScope(st, all)
	C := region.U1 - region.U0 + 1
	for t := 0; t < C; t++ {
		if st.halted(sc) {
			return
		}
		last := t == C-1
		paths, lines := b.paths[:0], b.lines[:0]
		for u := region.U0 + t%2; u+1 <= region.U1; u += 2 {
			i := len(paths)
			if p := uPath(paths, a, u, p0, p1); p != nil {
				paths = p
				lines = append(lines, paths[i:len(paths):len(paths)])
			}
		}
		b.paths, b.lines = paths, lines
		if len(lines) == 0 {
			continue
		}
		linear(st, lines, linearOpts{sc: sc, preserveDynamics: !last}, emit)
	}
}

func clipUnit(unit []int, p0, p1 int) []int {
	if p1 >= len(unit) {
		p1 = len(unit) - 1
	}
	if p0 > p1 {
		return nil
	}
	return unit[p0 : p1+1]
}

// uPath appends to dst the U-shaped Hamiltonian path over columns (c, c+1)
// restricted to rows [p0, p1]: it descends the left column to the rung end,
// crosses the rung, and ascends the right column, so the R appended slots
// are one column and the R after them the other. Returns nil when neither
// end row hosts a rung (cannot happen for even-height ranges).
func uPath(dst []int, a *arch.Arch, c, p0, p1 int) []int {
	left, right := a.Units[c], a.Units[c+1]
	if p1 >= len(left) {
		p1 = len(left) - 1
	}
	if p1 >= len(right) {
		p1 = len(right) - 1
	}
	if p0 > p1 {
		return nil
	}
	rungAt := func(r int) bool { return a.G.HasEdge(left[r], right[r]) }
	path := dst
	switch {
	case rungAt(p1): // cross at the bottom
		for r := p0; r <= p1; r++ {
			path = append(path, left[r])
		}
		for r := p1; r >= p0; r-- {
			path = append(path, right[r])
		}
	case rungAt(p0): // cross at the top
		for r := p1; r >= p0; r-- {
			path = append(path, left[r])
		}
		for r := p0; r <= p1; r++ {
			path = append(path, right[r])
		}
	default:
		return nil
	}
	return path
}
