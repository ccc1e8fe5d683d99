package arch

// Region bounds a rectangular sub-area of a unit-decomposed architecture,
// or an interval of the longest path for path-compiled families. It is what
// the range detector of §6.3 produces: the ATA pattern prediction is then
// confined to the region, tightening the predicted depth/gate-count bound.
type Region struct {
	// Unit-decomposed families (grid, sycamore, hexagon, 3D): unit index
	// range [U0, U1] and position-within-unit range [P0, P1], inclusive.
	U0, U1, P0, P1 int
	// Path-compiled families (line, heavy-hex): inclusive index interval
	// into Arch.Path. Off-path qubits anchored inside the interval belong
	// to the region.
	I0, I1 int
	// UsesPath selects which of the two encodings applies.
	UsesPath bool
}

// FullRegion returns the region covering the whole architecture.
func FullRegion(a *Arch) Region {
	if len(a.Units) > 0 {
		maxLen := 0
		for _, u := range a.Units {
			if len(u) > maxLen {
				maxLen = len(u)
			}
		}
		return Region{U0: 0, U1: len(a.Units) - 1, P0: 0, P1: maxLen - 1}
	}
	return Region{UsesPath: true, I0: 0, I1: len(a.Path) - 1}
}

// EnclosingRegion returns the smallest Region of a containing every physical
// qubit in phys. For unit-decomposed architectures it is the bounding
// unit/position rectangle; for path architectures, the bounding path
// interval (off-path qubits contribute their anchors).
func EnclosingRegion(a *Arch, phys []int) Region {
	if len(phys) == 0 {
		return Region{}
	}
	if len(a.Units) > 0 {
		unitOf, posOf := a.unitIndex()
		r := Region{U0: 1 << 30, P0: 1 << 30, U1: -1, P1: -1}
		for _, q := range phys {
			u, p := unitOf[q], posOf[q]
			if u < r.U0 {
				r.U0 = u
			}
			if u > r.U1 {
				r.U1 = u
			}
			if p < r.P0 {
				r.P0 = p
			}
			if p > r.P1 {
				r.P1 = p
			}
		}
		return r
	}
	lo, hi := a.pathSpans()
	r := Region{UsesPath: true, I0: 1 << 30, I1: -1}
	for _, q := range phys {
		r.I0, r.I1 = min(r.I0, lo[q]), max(r.I1, hi[q])
	}
	return r
}

// pathSpans returns, for every physical qubit, the inclusive interval of
// Arch.Path indices it adds to an enclosing path region: its own index
// for a qubit on the path, the span of its anchors for an off-path qubit
// (the last OffPath entry wins), and an empty interval (lo > hi) for any
// other. Like unitIndex, the slices are computed once per Arch and are
// read-only.
func (a *Arch) pathSpans() (lo, hi []int) {
	a.spanOnce.Do(func() {
		a.spanLo, a.spanHi = make([]int, a.N()), make([]int, a.N())
		for q := range a.spanLo {
			a.spanLo[q], a.spanHi[q] = 1<<30, -1
		}
		for _, op := range a.OffPath {
			l, h := 1<<30, -1
			for _, i := range op.PathAnchors {
				l, h = min(l, i), max(h, i)
			}
			a.spanLo[op.Qubit], a.spanHi[op.Qubit] = l, h
		}
		for i, q := range a.Path {
			a.spanLo[q], a.spanHi[q] = i, i
		}
	})
	return a.spanLo, a.spanHi
}

// Overlaps reports whether two regions of the same encoding intersect.
func (r Region) Overlaps(s Region) bool {
	if r.UsesPath != s.UsesPath {
		return true // mixed encodings: be conservative, force a merge
	}
	if r.UsesPath {
		return r.I0 <= s.I1 && s.I0 <= r.I1
	}
	return r.U0 <= s.U1 && s.U0 <= r.U1 && r.P0 <= s.P1 && s.P0 <= r.P1
}

// Union returns the smallest region containing both r and s.
func (r Region) Union(s Region) Region {
	if r.UsesPath {
		return Region{UsesPath: true, I0: min(r.I0, s.I0), I1: max(r.I1, s.I1)}
	}
	return Region{
		U0: min(r.U0, s.U0), U1: max(r.U1, s.U1),
		P0: min(r.P0, s.P0), P1: max(r.P1, s.P1),
	}
}

// Size returns the number of unit-position cells (or path slots) the region
// spans — a proxy for the sub-architecture size the predictor works with.
func (r Region) Size() int {
	if r.UsesPath {
		return r.I1 - r.I0 + 1
	}
	return (r.U1 - r.U0 + 1) * (r.P1 - r.P0 + 1)
}

// unitIndex returns, for every physical qubit, its unit index and position
// within the unit (-1, -1 for qubits outside any unit). The slices are
// computed once per Arch and shared — callers must treat them as read-only.
// Region detection and the snake restriction run once per hybrid prediction,
// so rebuilding the index there was a measurable per-checkpoint cost.
func (a *Arch) unitIndex() (unitOf, posOf []int) {
	a.unitOnce.Do(func() {
		a.unitOf = make([]int, a.N())
		a.posOf = make([]int, a.N())
		for i := range a.unitOf {
			a.unitOf[i], a.posOf[i] = -1, -1
		}
		for u, qs := range a.Units {
			for p, q := range qs {
				a.unitOf[q] = u
				a.posOf[q] = p
			}
		}
	})
	return a.unitOf, a.posOf
}

// UnitIndex exposes unitIndex for other packages.
func (a *Arch) UnitIndex() (unitOf, posOf []int) { return a.unitIndex() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
