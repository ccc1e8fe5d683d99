package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
)

// sycamoreATA realises all-to-all interaction on a Sycamore region
// (§3.2.1). A rotated lattice has no intra-row couplings, but every two
// adjacent rows induce a zig-zag path over their 2C qubits (Fig 10b/c), so
// one row-pairing can run the 1xUnit linear pattern over that path —
// covering all pairs among the two rows' occupants (bipartite and
// intra-unit at once) — and, because the linear pattern reverses the
// occupant order and the zig-zag alternates rows, the pairing finishes with
// the two rows' contents exactly exchanged. The pairing therefore plays
// both the "interaction" and the "SWAP" role of the unit-level
// transposition network, and R alternating-parity rounds complete the
// clique in O(R*C) cycles.
//
// The per-pairing linear run keeps preserveDynamics set: the row-exchange
// invariant is what makes later rounds cover the remaining group pairs, so
// the final swap layer of each pairing cannot be elided while other rounds
// remain.
func sycamoreATA(st *State, region arch.Region, emit EmitFunc) {
	a := st.A
	if region.U1 <= region.U0 {
		return
	}
	// Collect all region qubits for the global scope.
	b := st.scratch()
	all := b.qubits[:0]
	for u := region.U0; u <= region.U1; u++ {
		unit := a.Units[u]
		p1 := region.P1
		if p1 >= len(unit) {
			p1 = len(unit) - 1
		}
		all = append(all, unit[region.P0:p1+1]...)
	}
	b.qubits = all
	sc := newScope(st, all)
	R := region.U1 - region.U0 + 1
	for t := 0; t < R; t++ {
		if st.halted(sc) {
			return
		}
		last := t == R-1
		paths, lines := b.paths[:0], b.lines[:0]
		for u := region.U0 + t%2; u+1 <= region.U1; u += 2 {
			i := len(paths)
			paths = zigZagSegment(paths, a, u, region.P0, region.P1)
			lines = append(lines, paths[i:len(paths):len(paths)])
		}
		b.paths, b.lines = paths, lines
		if len(lines) == 0 {
			continue
		}
		linear(st, lines, linearOpts{sc: sc, preserveDynamics: !last}, emit)
	}
}

// zigZagSegment appends to dst the zig-zag path over rows (u, u+1)
// restricted to columns [p0, p1]. All consecutive entries are coupled: the
// zig-zag only uses vertical and diagonal couplings within the column
// range.
func zigZagSegment(dst []int, a *arch.Arch, u, p0, p1 int) []int {
	top, bottom := a.Units[u], a.Units[u+1]
	if p1 >= len(top) {
		p1 = len(top) - 1
	}
	if p1 >= len(bottom) {
		p1 = len(bottom) - 1
	}
	path := dst
	if u%2 == 0 {
		for c := p0; c <= p1; c++ {
			path = append(path, bottom[c], top[c])
		}
	} else {
		for c := p0; c <= p1; c++ {
			path = append(path, top[c], bottom[c])
		}
	}
	return path
}
