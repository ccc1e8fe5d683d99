// Package swapnet implements the paper's structured all-to-all (ATA)
// SWAP-network patterns: the linear 1xUnit pattern (Fig 6/7), the 2D-grid
// 2xUnit bipartite pattern (Fig 8/9) and full grid solution (§3.1), the
// Sycamore solution (§3.2.1), the hexagon solution (§3.2.2), and the IBM
// heavy-hex two-pass longest-path solution (§5.1).
//
// Every pattern is resumable: it starts from the *current* logical-to-
// physical mapping, emits program gates only for edges still in the want
// set (skipping the rest, §5.2), can be confined to a Region (§6.3 range
// detection), and stops as soon as its scope is exhausted. This one
// property serves the clique solution, the sparse-circuit adaptation, and
// the hybrid compiler's ATA prediction.
package swapnet

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// EdgeSet is a mutable set of logical problem edges (the gates still to be
// scheduled — the paper's candidate gate list). For an n-qubit problem it
// is a dense bitset over ordered logical pairs — edge {U, V} with U < V is
// bit U*n+V — plus a live count, so Has and Remove are one word operation
// each and Clone is one copy. Only canonical (U < V) edges between qubits
// in [0, n) can be members: reversed, self-loop and out-of-range edges are
// never present. The bitset takes n²/8 bytes.
type EdgeSet struct {
	n    int
	bits []uint64
	live int
}

// NewEdgeSet returns the edge set of g.
func NewEdgeSet(g *graph.Graph) *EdgeSet {
	s := &EdgeSet{}
	s.reset(g.N())
	for _, e := range g.Edges() {
		if _, ok := s.index(e); ok {
			s.add(e)
		}
	}
	return s
}

// reset empties s and sizes it for an n-qubit problem, reusing its words.
func (s *EdgeSet) reset(n int) {
	w := (n*n + 63) / 64
	if cap(s.bits) < w {
		s.bits = make([]uint64, w)
	} else {
		s.bits = s.bits[:w]
		clear(s.bits)
	}
	s.n, s.live = n, 0
}

// index returns e's bit, or false when e cannot be a member.
func (s *EdgeSet) index(e graph.Edge) (int, bool) {
	if e.U < 0 || e.U >= e.V || e.V >= s.n {
		return 0, false
	}
	return e.U*s.n + e.V, true
}

// Has reports membership.
func (s *EdgeSet) Has(e graph.Edge) bool {
	i, ok := s.index(e)
	return ok && s.bits[i>>6]&(1<<(i&63)) != 0
}

// add inserts e, which must be a canonical in-range edge.
func (s *EdgeSet) add(e graph.Edge) {
	i := e.U*s.n + e.V
	if s.bits[i>>6]&(1<<(i&63)) == 0 {
		s.bits[i>>6] |= 1 << (i & 63)
		s.live++
	}
}

// Remove deletes e, reporting whether it was present.
func (s *EdgeSet) Remove(e graph.Edge) bool {
	i, ok := s.index(e)
	if !ok || s.bits[i>>6]&(1<<(i&63)) == 0 {
		return false
	}
	s.bits[i>>6] &^= 1 << (i & 63)
	s.live--
	return true
}

// Len returns the number of remaining edges.
func (s *EdgeSet) Len() int { return s.live }

// Empty reports whether no edges remain.
func (s *EdgeSet) Empty() bool { return s.live == 0 }

// each calls f on every member in ascending (U, V) order.
func (s *EdgeSet) each(f func(graph.Edge)) {
	for wi, w := range s.bits {
		for w != 0 {
			i := wi<<6 | bits.TrailingZeros64(w)
			f(graph.Edge{U: i / s.n, V: i % s.n})
			w &= w - 1
		}
	}
}

// first returns the smallest member in (U, V) order.
func (s *EdgeSet) first() (graph.Edge, bool) {
	for wi, w := range s.bits {
		if w != 0 {
			i := wi<<6 | bits.TrailingZeros64(w)
			return graph.Edge{U: i / s.n, V: i % s.n}, true
		}
	}
	return graph.Edge{}, false
}

// Edges returns the remaining edges in ascending (U, V) order.
func (s *EdgeSet) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.live)
	s.each(func(e graph.Edge) { out = append(out, e) })
	return out
}

// Clone returns an independent copy.
func (s *EdgeSet) Clone() *EdgeSet {
	return &EdgeSet{n: s.n, bits: append([]uint64(nil), s.bits...), live: s.live}
}

// PhysGate is a program gate scheduled on a physical pair. Fused gates are
// the unified gate+SWAP of the structured patterns (the mapping swap is
// implied and already applied to the State).
type PhysGate struct {
	P, Q  int
	Tag   graph.Edge
	Fused bool
}

// Step is one pattern cycle: a compute layer and zero or more SWAP layers
// executed after it. Swap layers are already applied to the State when the
// step is emitted. An emitted Step's slices are pattern-owned buffers,
// valid only until the EmitFunc returns (see EmitFunc).
type Step struct {
	Compute []PhysGate
	Swaps   [][]graph.Edge
	// ParallelSwaps marks that the first swap layer is qubit-disjoint from
	// the compute layer and executes in the same cycle — the linear
	// pattern's rounds put the unified gate+SWAPs and the plain SWAPs of
	// one parity side by side (both are 3 CX deep).
	ParallelSwaps bool
}

// Depth returns the step's contribution to cycle depth: one cycle if any
// compute happens, plus one per non-empty swap layer (the first swap layer
// is free when ParallelSwaps is set and a compute layer exists).
func (s Step) Depth() int {
	d := 0
	if len(s.Compute) > 0 {
		d++
	}
	for i, l := range s.Swaps {
		if len(l) == 0 {
			continue
		}
		if i == 0 && s.ParallelSwaps && len(s.Compute) > 0 {
			continue
		}
		d++
	}
	return d
}

// EmitFunc consumes pattern steps. A Step's slices (Compute, Swaps and
// each swap layer) are valid only during the call: the patterns refill the
// same buffers for the next step, so a sink that keeps a step must copy it.
type EmitFunc func(Step)

// State is the mutable execution state a pattern advances: the placement of
// logical qubits and the remaining wanted edges.
type State struct {
	A    *arch.Arch
	L2P  []int // logical -> physical
	P2L  []int // physical -> logical; -1 for empty slots
	Want *EdgeSet

	scr *scratch // pattern buffers; shared only with st's own forks
}

// scratch is the memory a State's patterns reuse instead of allocating per
// round: the one live scope, the buffers every emitted Step is built in,
// and the two State copies and step recorders of the grid dual prediction.
// ATAWithCache borrows one from scratchPool for the duration of the call.
type scratch struct {
	sc       scope
	logicals []int
	gates    [2][]PhysGate // a step's compute layer; bipartiteGrid fills two at once
	swaps    []graph.Edge  // a step's swap layer
	layers   [1][]graph.Edge
	pairs    [][2]int
	busy     []bool // per physical qubit, all false between uses
	forks    [2]State
	recs     [2]stepRecorder
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch returns st's pattern buffers, allocating them on first use.
func (st *State) scratch() *scratch {
	if st.scr == nil {
		st.scr = new(scratch)
	}
	if n := st.A.N(); len(st.scr.busy) < n {
		st.scr.busy = make([]bool, n)
	}
	return st.scr
}

// fork makes slot i of st's scratch a copy of st that reuses the slot's
// memory and shares st's scratch, so the copy must not run while st (or
// the other slot) does.
func (st *State) fork(i int) *State {
	b := st.scratch()
	f := &b.forks[i]
	st.copyTo(f)
	f.scr = b
	return f
}

// copyTo overwrites dst's placement and want set with st's, reusing dst's
// memory (dst.Want may be nil).
func (st *State) copyTo(dst *State) {
	dst.A = st.A
	dst.L2P = append(dst.L2P[:0], st.L2P...)
	dst.P2L = append(dst.P2L[:0], st.P2L...)
	if dst.Want == nil {
		dst.Want = new(EdgeSet)
	}
	dst.Want.n, dst.Want.live = st.Want.n, st.Want.live
	dst.Want.bits = append(dst.Want.bits[:0], st.Want.bits...)
}

// step wraps a compute layer and an optional swap layer, both built in the
// scratch buffers, as a Step.
func (b *scratch) step(compute []PhysGate, swaps []graph.Edge, parallel bool) Step {
	s := Step{Compute: compute}
	if len(swaps) > 0 {
		b.layers[0] = swaps
		s.Swaps, s.ParallelSwaps = b.layers[:1], parallel
	}
	return s
}

// ValidateMapping checks that l2p is an injection of logical qubits into
// the physical qubits of a, returning a descriptive error. The State
// constructors reserve panics for the same violation because their callers
// are compiler-internal; user-supplied mappings should be screened here at
// the input boundary instead.
func ValidateMapping(a *arch.Arch, l2p []int) error {
	if len(l2p) > a.N() {
		return fmt.Errorf("swapnet: mapping places %d logical qubits but %s has %d physical", len(l2p), a.Name, a.N())
	}
	seen := make([]int, a.N())
	for i := range seen {
		seen[i] = -1
	}
	for l, p := range l2p {
		if p < 0 || p >= a.N() {
			return fmt.Errorf("swapnet: mapping sends logical %d to invalid physical %d (device has %d qubits)", l, p, a.N())
		}
		if seen[p] != -1 {
			return fmt.Errorf("swapnet: mapping sends both logical %d and %d to physical %d", seen[p], l, p)
		}
		seen[p] = l
	}
	return nil
}

// NewState returns a state over architecture a with nLogical qubits placed
// by initial (identity when nil) and the edges of problem wanted.
func NewState(a *arch.Arch, nLogical int, initial []int, problem *graph.Graph) *State {
	if nLogical > a.N() {
		panic(fmt.Sprintf("swapnet: %d logical qubits exceed %d physical", nLogical, a.N()))
	}
	l2p := make([]int, nLogical)
	if initial == nil {
		for i := range l2p {
			l2p[i] = i
		}
	} else {
		copy(l2p, initial)
	}
	p2l := make([]int, a.N())
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		if p < 0 || p >= a.N() || p2l[p] != -1 {
			panic(fmt.Sprintf("swapnet: invalid mapping %d->%d", l, p))
		}
		p2l[p] = l
	}
	return &State{A: a, L2P: l2p, P2L: p2l, Want: NewEdgeSet(problem)}
}

// NewStateFromMapping returns a state resuming from an arbitrary
// logical-to-physical mapping and an explicit remaining want set — the
// hybrid compiler's entry point when it branches from a greedy checkpoint
// into ATA prediction or materialisation (§6.3).
func NewStateFromMapping(a *arch.Arch, l2p []int, want *EdgeSet) *State {
	p2l := make([]int, a.N())
	for i := range p2l {
		p2l[i] = -1
	}
	cp := append([]int(nil), l2p...)
	for l, p := range cp {
		if p < 0 || p >= a.N() || p2l[p] != -1 {
			panic(fmt.Sprintf("swapnet: invalid mapping %d->%d", l, p))
		}
		p2l[p] = l
	}
	return &State{A: a, L2P: cp, P2L: p2l, Want: want}
}

// Clone returns an independent deep copy with its own pattern buffers.
func (st *State) Clone() *State {
	c := &State{A: st.A, Want: st.Want.Clone()}
	c.L2P = append([]int(nil), st.L2P...)
	c.P2L = append([]int(nil), st.P2L...)
	return c
}

// WantedPhys returns the wanted logical edge currently residing on physical
// pair (p, q), if any.
func (st *State) WantedPhys(p, q int) (graph.Edge, bool) {
	lp, lq := st.P2L[p], st.P2L[q]
	if lp > lq {
		lp, lq = lq, lp
	}
	// Has, unrolled to keep this inlinable: lp < lq unless both slots are
	// empty (-1).
	w := st.Want
	if lp < 0 || lq >= w.n {
		return graph.Edge{}, false
	}
	if k := lp*w.n + lq; w.bits[k>>6]&(1<<(k&63)) == 0 {
		return graph.Edge{}, false
	}
	return graph.Edge{U: lp, V: lq}, true
}

// ApplySwap exchanges the logical occupants of physical p and q.
func (st *State) ApplySwap(p, q int) {
	lp, lq := st.P2L[p], st.P2L[q]
	st.P2L[p], st.P2L[q] = lq, lp
	if lp >= 0 {
		st.L2P[lp] = q
	}
	if lq >= 0 {
		st.L2P[lq] = p
	}
}

// scope tracks the subset of wanted edges a pattern phase is responsible
// for, so phases terminate as soon as their own work is done even while the
// global want set still holds edges for other regions or phases. It is a
// bitset in the want set's index space, borrowed from the State's scratch:
// a State has at most one live scope.
type scope struct {
	rel EdgeSet
}

// newScope collects the wanted edges whose both endpoints currently reside
// on the given physical qubits.
func newScope(st *State, phys ...[]int) *scope {
	b := st.scratch()
	sc := &b.sc
	w := st.Want
	sc.rel.reset(w.n)
	logicals := b.logicals[:0]
	for _, ps := range phys {
		for _, p := range ps {
			if l := st.P2L[p]; l >= 0 && l < w.n {
				logicals = append(logicals, l)
			}
		}
	}
	slices.Sort(logicals)
	b.logicals = logicals
	// Ascending logicals make every (x, y) below a canonical edge, bit x*n+y.
	for i, x := range logicals {
		row := x * w.n
		for _, y := range logicals[i+1:] {
			if k := row + y; w.bits[k>>6]&(1<<(k&63)) != 0 {
				sc.rel.add(graph.Edge{U: x, V: y})
			}
		}
	}
	return sc
}

func (sc *scope) computed(e graph.Edge) { sc.rel.Remove(e) }
func (sc *scope) done() bool            { return sc.rel.Empty() }

// emitCompute records a wanted gate on (p,q): removes it from Want, updates
// the scope, and returns the PhysGate. Call only after WantedPhys reported
// true.
func (st *State) emitCompute(sc *scope, p, q int, tag graph.Edge, fused bool) PhysGate {
	st.Want.Remove(tag)
	if sc != nil {
		sc.computed(tag)
	}
	return PhysGate{P: p, Q: q, Tag: tag, Fused: fused}
}
