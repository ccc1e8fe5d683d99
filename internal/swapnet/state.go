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

// Each calls f on every member in ascending (U, V) order.
func (s *EdgeSet) Each(f func(graph.Edge)) {
	u, row := 0, 0 // row is bit u*n, where u's row starts
	for wi, w := range s.bits {
		for w != 0 {
			i := wi<<6 | bits.TrailingZeros64(w)
			for i >= row+s.n {
				u, row = u+1, row+s.n
			}
			f(graph.Edge{U: u, V: i - row})
			w &= w - 1
		}
	}
}

// next returns the smallest member at bit i or after it, in (U, V) order,
// and the bit to resume from; next(0) is the smallest member.
func (s *EdgeSet) next(i int) (e graph.Edge, resume int, ok bool) {
	wi := i >> 6
	if wi >= len(s.bits) {
		return graph.Edge{}, 0, false
	}
	w := s.bits[wi] &^ (1<<(i&63) - 1)
	for w == 0 {
		if wi++; wi == len(s.bits) {
			return graph.Edge{}, 0, false
		}
		w = s.bits[wi]
	}
	j := wi<<6 | bits.TrailingZeros64(w)
	return graph.Edge{U: j / s.n, V: j % s.n}, j + 1, true
}

// Edges returns the remaining edges in ascending (U, V) order.
func (s *EdgeSet) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.live)
	s.Each(func(e graph.Edge) { out = append(out, e) })
	return out
}

// setAt adds the edges that m marks among the 64 bits from bit i; none of
// them may be a member yet.
func (s *EdgeSet) setAt(i int, m uint64) {
	s.live += bits.OnesCount64(m)
	wi, sh := i>>6, uint(i&63)
	s.bits[wi] |= m << sh
	if sh != 0 && wi+1 < len(s.bits) {
		s.bits[wi+1] |= m >> (64 - sh)
	}
}

// clearAt removes the members that m marks among the 64 bits from bit i;
// each bit m marks must be a member.
func (s *EdgeSet) clearAt(i int, m uint64) {
	s.live -= bits.OnesCount64(m)
	wi, sh := i>>6, uint(i&63)
	s.bits[wi] &^= m << sh
	if sh != 0 && wi+1 < len(s.bits) {
		s.bits[wi+1] &^= m >> (64 - sh)
	}
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
// A sink that has seen enough calls State.Stop on the State the pattern is
// advancing: the pattern then emits no further step and returns.
type EmitFunc func(Step)

// Bound prices a grid dual candidate while it runs on a scratch copy, so a
// copy that has already lost can stop early and a priced winner need not
// run again. Slot k (0 for the structured pattern, 1 for the snake) is a
// shadow of the sink's running sums: Reset(k) starts it from the sink's
// current sums, Add(k, s) folds step s into it without counting it,
// returning the shadow's cost and whether that cost has lost, and Take(k)
// makes it the sink's running sums, in place of emitting the candidate's
// steps. Add must fold a step exactly as the sink folds an emitted one,
// with the same additions in the same order, so that a taken shadow holds
// the sums the emitted steps would leave, and a lost one stands for a run
// the sink would have stopped at the step where it lost.
type Bound interface {
	Reset(k int)
	Add(k int, s Step) (cost float64, lost bool)
	Take(k int)
}

// RoundSink is a noise-free sink that takes a line run's rounds as counts
// (see State.Rounds). In fused mode a round of the linear pattern is one
// cycle whatever its occupants, so a counted round is one cycle and cx CX.
type RoundSink interface {
	// AddRound folds a counted round into the sink's running sums (k < 0)
	// or into Bound slot k's shadow, with the same additions as folding an
	// emitted step of one cycle and cx CX there, and returns the cost and
	// whether it has lost. The caller stops the State when it has.
	AddRound(k, cx int) (cost float64, lost bool)
}

// State is the mutable execution state a pattern advances: the placement of
// logical qubits and the remaining wanted edges.
type State struct {
	A    *arch.Arch
	L2P  []int // logical -> physical
	P2L  []int // physical -> logical; -1 for empty slots
	Want *EdgeSet
	// Bound, when set, prices the grid dual's candidate runs and cuts a
	// lost one, and takes a priced winner's shadow instead of emitting its
	// steps (see gridDual); nil runs every candidate to its end and the
	// winner again on st.
	Bound Bound
	// Rounds, when set, is the sink the patterns run on st emit to, and
	// it prices without noise: a line run with no extraLayer then folds
	// each round into it as a count, and moves st only if the sink never
	// stops it (see countLinear). With Bound set as well, Rounds prices
	// Bound's shadows. A grid dual's scratch copy keeps the original's
	// Rounds, and its pricer takes the counted rounds and prices them in
	// the shadow. Nil simulates every round.
	Rounds RoundSink

	stopped bool     // set by Stop; see halted
	scr     *scratch // pattern buffers; shared only with st's own forks
	cand    *pricer  // a grid dual candidate's pricer, which takes its counted rounds
}

// Stop ends the pattern advancing st: it emits no step after the current
// one and returns at its next check, and every later pattern call on st
// returns at once. The State is then mid-pattern — it may have advanced
// past the last emitted step — so it is only good for discarding. The
// hybrid compiler's prediction sink stops a checkpoint whose cost can no
// longer win; materialisation never stops.
func (st *State) Stop() { st.stopped = true }

// Stopped reports whether Stop was called on st.
func (st *State) Stopped() bool { return st.stopped }

// halted reports whether a pattern phase over sc must return: a sink
// stopped st, or sc's work is done.
func (st *State) halted(sc *scope) bool { return st.stopped || sc.done() }

// scratch is the memory a State's patterns reuse instead of allocating per
// round: the one live scope, the buffers every emitted Step is built in,
// the two State copies and pricers of the grid dual prediction, and the
// per-pattern buffers below.
// ATAWithCache borrows one from scratchPool for the duration of the call.
type scratch struct {
	sc     scope
	among  wantedAmong   // newScope's and countLinear's walk
	gates  [2][]PhysGate // a step's compute layer; bipartiteGrid fills two at once
	swaps  []graph.Edge  // a step's swap layer
	layers [1][]graph.Edge
	pairs  [][2]int
	busy   []bool // per physical qubit, all false between uses (see routeStragglers)
	forks  [2]State
	cands  [2]pricer

	// A counted line run's lines: each logical's line and starting
	// virtual slot (line -1 when it is on none, as between uses), and one
	// line's occupants after the run; a counted bipartite phase's paired
	// rows, its wanted cross pairs per alignment cycle, the want bits of
	// each row position's logical among its pair of rows (see scanPhase),
	// and the two rows' logicals, one bit each (zero between uses).
	slots []lineSlot
	occ   []int
	rows  [][]int
	align []int
	near  []uint64
	masks []uint64

	// The region and line buffers of the sycamore, hexagon and heavy-hex
	// patterns: a region's qubits, the lines of one round cut from the
	// paths arena, and heavy-hex's off-path qubits with their anchors.
	qubits  []int
	paths   []int
	lines   [][]int
	offs    []offQubit
	anchors []int
	// routeStragglers' breadth-first search: a qubit is visited when its
	// seen entry equals stamp, which every search bumps, and prev holds
	// its predecessor then.
	seen  []uint32
	prev  []int32
	stamp uint32
	queue []int32
	walk  []int
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
	f.scr, f.stopped = b, false
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
	sc.rel.reset(st.Want.n)
	it := &b.among
	it.start(st, phys)
	for it.refill() {
		sc.rel.setAt(it.x*it.w.n+it.y0, it.chunk)
	}
	it.end()
	return sc
}

// wantedAmong walks the wanted edges whose both endpoints reside on a set
// of physical qubits when the walk starts. It marks those qubits' logicals
// in a bit mask and intersects each one's row of the want bitset with it,
// 64 bits at a time: row by row in the order the logicals first appear,
// each row in ascending V. Removing the edge just returned from the want
// set does not disturb the walk. Its buffers live in the scratch, so a
// State walks one set at a time.
type wantedAmong struct {
	w        *EdgeSet
	mask     []uint64 // the set's logicals, one bit each; zero between walks
	logicals []int
	xi, x    int    // the next row's index in logicals, and the current row
	y0       int    // the current chunk's first column
	chunk    uint64 // the current chunk's members not yet returned
}

// start begins a walk over the logicals on phys.
func (it *wantedAmong) start(st *State, phys [][]int) {
	w := st.Want
	n := w.n
	mw := (n + 63) / 64
	if cap(it.mask) < mw {
		it.mask = make([]uint64, mw)
	}
	it.w, it.mask = w, it.mask[:mw]
	logicals := it.logicals[:0]
	for _, ps := range phys {
		for _, p := range ps {
			if l := st.P2L[p]; l >= 0 && l < n && it.mask[l>>6]&(1<<(l&63)) == 0 {
				it.mask[l>>6] |= 1 << (l & 63)
				logicals = append(logicals, l)
			}
		}
	}
	it.logicals = logicals
	it.rewind()
}

// rewind restarts the walk from its first edge.
func (it *wantedAmong) rewind() { it.xi, it.y0, it.chunk = 0, it.w.n, 0 }

// end finishes the walk, clearing the mask.
func (it *wantedAmong) end() { clear(it.mask) }

// next returns the walk's next edge.
func (it *wantedAmong) next() (graph.Edge, bool) {
	if it.chunk == 0 && !it.refill() {
		return graph.Edge{}, false
	}
	t := bits.TrailingZeros64(it.chunk)
	it.chunk &= it.chunk - 1
	return graph.Edge{U: it.x, V: it.y0 + t}, true
}

// refill loads the next chunk with members, reporting false at the end.
// Row x holds the edges (x, y), y > x, at bits x*n+y; its bits at y <= x
// are always zero. Mask bits at y >= n are zero, so a chunk running past
// the row's end adds nothing.
func (it *wantedAmong) refill() bool {
	n := it.w.n
	for {
		for it.y0 += 64; it.y0 >= n; it.y0 = (it.x + 1) &^ 63 {
			if it.xi == len(it.logicals) {
				return false
			}
			it.x = it.logicals[it.xi]
			it.xi++
		}
		if m := it.mask[it.y0>>6]; m != 0 {
			if it.chunk = bitsAt(it.w.bits, it.x*n+it.y0) & m; it.chunk != 0 {
				return true
			}
		}
	}
}

// bitsAt returns the 64 bits of ws starting at bit i (zeros past the end).
func bitsAt(ws []uint64, i int) uint64 {
	wi, s := i>>6, uint(i&63)
	v := ws[wi] >> s
	if s != 0 && wi+1 < len(ws) {
		v |= ws[wi+1] << (64 - s)
	}
	return v
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
