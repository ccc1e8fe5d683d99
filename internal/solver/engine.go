package solver

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// engine is the optimized A* machinery. A search state (p2l, rem) is packed
// into stride = N+8 bytes — one byte per physical qubit (occupant logical +
// 1, so 0 means empty) followed by the remaining-edge bitmask little-endian
// — and stored once in a flat arena. Node metadata (g, h, parent, via
// cycle, heap position) lives in parallel slices indexed by node id, the
// closed set is an open-addressing table of node ids, and the open heap
// holds node ids with an exact position index so improvements are
// decrease-key operations instead of duplicate pushes. All scratch buffers
// are reused across expansions and the whole engine is pooled across
// searches, so the steady-state expansion loop does not allocate.
type engine struct {
	a       *arch.Arch
	problem *graph.Graph
	edges   []graph.Edge
	dist    [][]int

	np     int // physical qubits
	nl     int // logical qubits
	ne     int // problem edges
	nc     int // coupling edges
	stride int // np + 8 bytes per packed state

	// Per-search action templates and heuristic tables.
	ceU, ceV     []int16  // coupling edge endpoints
	ceIdx        []int16  // flat np*np physical pair -> coupling index, -1
	pairEdge     []int16  // flat nl*nl logical pair -> problem edge index, -1
	vertexMask   []uint64 // problem-edge bits incident to each logical qubit
	edgeU, edgeV []int16  // problem edge endpoints

	// auts holds the coupling-graph automorphisms states are canonicalized
	// under; auts[0] is always the identity, and len(auts) == 1 when
	// symmetry reduction is disabled or unavailable.
	auts [][]int16

	// Node arenas, indexed by node id.
	states  []byte   // packed states, stride bytes each
	costs   []uint8  // per-edge heuristic cost cache, ne bytes each
	hashes  []uint64 // state hash, for probing and table growth
	g, h    []int32
	parent  []int32
	autOf   []uint8 // automorphism applied at canonicalization
	viaOff  []int32 // offset into ops of the arriving cycle
	viaLen  []int32
	heapPos []int32 // position in heap, -1 = not open
	ops     []Op    // via cycle arena (parent-frame coordinates)

	table []int32 // open-addressing closed set: node ids, -1 = empty
	heap  []int32 // open set: node ids ordered by (g+h, -g)

	peakOpen int

	// Expansion context (valid during one expand call).
	expID       int32
	expState    []byte // parent packed state (view into states)
	expCost     []uint8
	expRem      uint64
	expG        int32
	expGateBits uint64  // problem-edge bits of the gates chosen so far
	expGate     []int16 // per coupling: available problem edge index, -1
	expGateList []int16 // couplings with an available gate, for the prune scan
	chosen      []chosenAct

	// Scratch buffers.
	l2p        []int16
	childL2p   []int16
	childState []byte
	candState  []byte
	bestState  []byte
	childCost  []uint8
	used       []bool
	parentSwap []bool  // coupling indices swapped by the arriving cycle
	swapMarks  []int16 // which parentSwap entries are set, for cheap reset
	touch      []int16 // logical qubits touched by the chosen cycle
}

type chosenAct struct {
	ci   int16 // coupling index
	ei   int16 // problem edge index when gate
	gate bool
}

// enginePool recycles engines (arenas, tables, scratch) across searches, so
// callers that solve many small instances — the equivalence property tests,
// the swapnet optimality cross-checks — do not rebuild multi-megabyte
// buffers per call.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

func newEngine(a *arch.Arch, problem *graph.Graph, edges []graph.Edge, symmetry bool) *engine {
	e := enginePool.Get().(*engine)
	e.a, e.problem, e.edges = a, problem, edges
	e.dist = a.Distances()
	e.np, e.nl, e.ne = a.N(), problem.N(), len(edges)
	e.stride = e.np + 8

	ce := a.G.Edges()
	e.nc = len(ce)
	e.ceU = growI16(e.ceU, e.nc)
	e.ceV = growI16(e.ceV, e.nc)
	e.ceIdx = growI16(e.ceIdx, e.np*e.np)
	fillI16(e.ceIdx, -1)
	for i, c := range ce {
		e.ceU[i], e.ceV[i] = int16(c.U), int16(c.V)
		e.ceIdx[c.U*e.np+c.V] = int16(i)
		e.ceIdx[c.V*e.np+c.U] = int16(i)
	}

	e.pairEdge = growI16(e.pairEdge, e.nl*e.nl)
	fillI16(e.pairEdge, -1)
	e.vertexMask = growU64(e.vertexMask, e.nl)
	for i := range e.vertexMask {
		e.vertexMask[i] = 0
	}
	e.edgeU = growI16(e.edgeU, e.ne)
	e.edgeV = growI16(e.edgeV, e.ne)
	for i, ed := range edges {
		e.pairEdge[ed.U*e.nl+ed.V] = int16(i)
		e.pairEdge[ed.V*e.nl+ed.U] = int16(i)
		e.vertexMask[ed.U] |= 1 << uint(i)
		e.vertexMask[ed.V] |= 1 << uint(i)
		e.edgeU[i], e.edgeV[i] = int16(ed.U), int16(ed.V)
	}

	e.auts = automorphisms(a, symmetry, e.auts)

	e.states = e.states[:0]
	e.costs = e.costs[:0]
	e.hashes = e.hashes[:0]
	e.g, e.h = e.g[:0], e.h[:0]
	e.parent = e.parent[:0]
	e.autOf = e.autOf[:0]
	e.viaOff, e.viaLen = e.viaOff[:0], e.viaLen[:0]
	e.heapPos = e.heapPos[:0]
	e.ops = e.ops[:0]
	e.heap = e.heap[:0]
	if len(e.table) < 1<<12 {
		e.table = make([]int32, 1<<12)
	}
	fillI32(e.table, -1)
	e.peakOpen = 0

	e.expGate = growI16(e.expGate, e.nc)
	e.expGateList = e.expGateList[:0]
	e.chosen = e.chosen[:0]
	e.l2p = growI16(e.l2p, e.nl)
	e.childL2p = growI16(e.childL2p, e.nl)
	e.childState = growBytes(e.childState, e.stride)
	e.candState = growBytes(e.candState, e.stride)
	e.bestState = growBytes(e.bestState, e.stride)
	e.childCost = growU8(e.childCost, e.ne)
	e.used = growBool(e.used, e.np)
	for i := range e.used {
		e.used[i] = false
	}
	e.parentSwap = growBool(e.parentSwap, e.nc)
	for i := range e.parentSwap {
		e.parentSwap[i] = false
	}
	e.swapMarks = e.swapMarks[:0]
	e.touch = e.touch[:0]
	return e
}

// maxPooledTable bounds the hash table an engine may carry back into the
// pool. newEngine clears the whole table, so pooling a table sized for a
// multi-million-node search would tax every later small solve with a
// hundreds-of-MB memset (observed: a 15-node search paying 43ms after a
// line-8 run). Oversized searches hand their arenas to the GC instead.
const maxPooledTable = 1 << 22

// release returns the engine to the pool. The caller must not touch the
// engine afterwards; Result data is copied out before release.
func (e *engine) release() {
	e.a, e.problem, e.edges, e.dist = nil, nil, nil, nil
	e.expState, e.expCost = nil, nil
	if len(e.table) > maxPooledTable {
		return // drop; the pool's New makes a fresh small one on demand
	}
	enginePool.Put(e)
}

func (e *engine) nodes() int { return len(e.g) }

func (e *engine) stateAt(id int32) []byte {
	off := int(id) * e.stride
	return e.states[off : off+e.stride]
}

func (e *engine) costAt(id int32) []uint8 {
	off := int(id) * e.ne
	return e.costs[off : off+e.ne]
}

func (e *engine) remOf(id int32) uint64 {
	off := int(id)*e.stride + e.np
	return binary.LittleEndian.Uint64(e.states[off : off+8])
}

// hashState is FNV-1a over 8-byte words with a final avalanche, cheap for
// the ~N+8 byte states while spreading the low entropy of mostly-small
// occupant bytes across the table index bits.
func hashState(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// find probes the closed set for state, returning its node id (or -1) and
// the slot where it would be inserted.
func (e *engine) find(state []byte, hash uint64) (int32, int) {
	mask := len(e.table) - 1
	i := int(hash) & mask
	for {
		v := e.table[i]
		if v < 0 {
			return -1, i
		}
		if e.hashes[v] == hash && bytes.Equal(e.stateAt(v), state) {
			return v, i
		}
		i = (i + 1) & mask
	}
}

// growTable doubles the table when the load factor passes 3/4.
func (e *engine) growTable() {
	if 4*len(e.g) < 3*len(e.table) {
		return
	}
	nt := make([]int32, 2*len(e.table))
	fillI32(nt, -1)
	mask := len(nt) - 1
	for id := range e.g {
		i := int(e.hashes[id]) & mask
		for nt[i] >= 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(id)
	}
	e.table = nt
}

// costClosed is cost(qi,qj) of Definition 3 in closed form: f(x) =
// max(du+x, dv+d-1-x) is convex piecewise-linear in x, so the integer
// minimum over [0, d-1] is at the clamped balance point or its neighbour.
// The value is clamped to 255 for the byte cache (clamping down keeps the
// heuristic admissible; real instances stay far below it).
func costClosed(d, du, dv int) uint8 {
	if d < 1 {
		if d == 0 {
			if du > dv {
				return clamp255(du)
			}
			return clamp255(dv)
		}
		return 255 // disconnected pair: effectively unreachable
	}
	num := dv + d - 1 - du
	x := num >> 1 // floor division by 2, also for negative num
	if x < 0 {
		x = 0
	} else if x > d-1 {
		x = d - 1
	}
	best := maxInt(du+x, dv+d-1-x)
	if x+1 <= d-1 {
		if c := maxInt(du+x+1, dv+d-2-x); c < best {
			best = c
		}
	}
	return clamp255(best)
}

func clamp255(v int) uint8 {
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// addRoot packs, canonicalizes, and stores the initial state with a fully
// computed per-edge cost cache.
func (e *engine) addRoot(start []int8) {
	for p := 0; p < e.np; p++ {
		e.childState[p] = byte(start[p] + 1)
	}
	full := uint64(0)
	for i := 0; i < e.ne; i++ {
		full |= 1 << uint(i)
	}
	binary.LittleEndian.PutUint64(e.childState[e.np:], full)

	for p := 0; p < e.np; p++ {
		if l := int(start[p]); l >= 0 {
			e.childL2p[l] = int16(p)
		}
	}
	h := int32(0)
	for i := 0; i < e.ne; i++ {
		d := e.dist[e.childL2p[e.edgeU[i]]][e.childL2p[e.edgeV[i]]]
		du := bits.OnesCount64(full & e.vertexMask[e.edgeU[i]])
		dv := bits.OnesCount64(full & e.vertexMask[e.edgeV[i]])
		c := costClosed(d, du, dv)
		e.childCost[i] = c
		if int32(c) > h {
			h = int32(c)
		}
	}

	state, aut := e.canonical()
	hash := hashState(state)
	_, slot := e.find(state, hash)
	e.insert(state, hash, slot, 0, h, -1, aut, 0, 0)
}

// canonical returns the lexicographically smallest automorphic image of
// childState (and the automorphism index that produced it). With symmetry
// disabled this is childState itself.
func (e *engine) canonical() ([]byte, uint8) {
	if len(e.auts) == 1 {
		return e.childState, 0
	}
	best := e.bestState
	copy(best, e.childState)
	aut := uint8(0)
	for k := 1; k < len(e.auts); k++ {
		sigma := e.auts[k]
		for p := 0; p < e.np; p++ {
			e.candState[sigma[p]] = e.childState[p]
		}
		copy(e.candState[e.np:], e.childState[e.np:])
		if bytes.Compare(e.candState, best) < 0 {
			copy(best, e.candState)
			aut = uint8(k)
		}
	}
	return best, aut
}

// insert stores a new node and pushes it onto the open heap. viaOff/viaLen
// locate the arriving cycle already appended to the ops arena.
func (e *engine) insert(state []byte, hash uint64, slot int, g, h, parent int32, aut uint8, viaOff, viaLen int32) int32 {
	id := int32(len(e.g))
	e.states = append(e.states, state...)
	e.costs = append(e.costs, e.childCost[:e.ne]...)
	e.hashes = append(e.hashes, hash)
	e.g = append(e.g, g)
	e.h = append(e.h, h)
	e.parent = append(e.parent, parent)
	e.autOf = append(e.autOf, aut)
	e.viaOff = append(e.viaOff, viaOff)
	e.viaLen = append(e.viaLen, viaLen)
	e.heapPos = append(e.heapPos, -1)
	e.table[slot] = id
	e.growTable()
	e.heapPush(id)
	return id
}

// expand enumerates the children of cur: every non-empty qubit-disjoint set
// of actions, where each coupling edge may host a SWAP or (if its occupants
// form a remaining gate) the gate. Pruned subsets — swap-only cycles
// dominated by adding an available gate, and swaps that undo the arriving
// cycle — are documented in DESIGN.md with their admissibility arguments.
func (e *engine) expand(cur int32) {
	e.expID = cur
	e.expState = e.stateAt(cur)
	e.expCost = e.costAt(cur)
	e.expRem = e.remOf(cur)
	e.expG = e.g[cur]
	e.expGateBits = 0

	for p := 0; p < e.np; p++ {
		if l := int(e.expState[p]) - 1; l >= 0 {
			e.l2p[l] = int16(p)
		}
	}

	// Mark the couplings swapped by the arriving cycle (in cur's stored
	// frame: via ops are recorded in the parent's frame, so map them through
	// cur's canonicalization automorphism).
	for _, m := range e.swapMarks {
		e.parentSwap[m] = false
	}
	e.swapMarks = e.swapMarks[:0]
	if n := e.viaLen[cur]; n > 0 {
		sigma := e.auts[e.autOf[cur]]
		for _, op := range e.ops[e.viaOff[cur] : e.viaOff[cur]+n] {
			if op.Gate {
				continue
			}
			ci := e.ceIdx[int(sigma[op.P])*e.np+int(sigma[op.Q])]
			e.parentSwap[ci] = true
			e.swapMarks = append(e.swapMarks, ci)
		}
	}

	// Gate availability per coupling, resolved once per expansion.
	e.expGateList = e.expGateList[:0]
	for ci := 0; ci < e.nc; ci++ {
		lu := int(e.expState[e.ceU[ci]]) - 1
		lv := int(e.expState[e.ceV[ci]]) - 1
		ei := int16(-1)
		if lu >= 0 && lv >= 0 {
			if x := e.pairEdge[lu*e.nl+lv]; x >= 0 && e.expRem&(1<<uint(x)) != 0 {
				ei = x
				e.expGateList = append(e.expGateList, int16(ci))
			}
		}
		e.expGate[ci] = ei
	}

	e.dfs(0)
}

// dfs enumerates qubit-disjoint action subsets over couplings [ci, nc).
func (e *engine) dfs(ci int) {
	if ci == e.nc {
		e.leaf()
		return
	}
	p, q := e.ceU[ci], e.ceV[ci]
	if !e.used[p] && !e.used[q] {
		e.used[p], e.used[q] = true, true
		// SWAP branch — skipped when it would exactly undo a swap of the
		// arriving cycle (the states cancel; see DESIGN.md).
		if !e.parentSwap[ci] {
			e.chosen = append(e.chosen, chosenAct{ci: int16(ci)})
			e.dfs(ci + 1)
			e.chosen = e.chosen[:len(e.chosen)-1]
		}
		if ei := e.expGate[ci]; ei >= 0 {
			e.chosen = append(e.chosen, chosenAct{ci: int16(ci), ei: ei, gate: true})
			e.expGateBits |= 1 << uint(ei)
			e.dfs(ci + 1)
			e.expGateBits &^= 1 << uint(ei)
			e.chosen = e.chosen[:len(e.chosen)-1]
		}
		e.used[p], e.used[q] = false, false
	}
	e.dfs(ci + 1)
}

// leaf materializes the chosen action set as a child node.
func (e *engine) leaf() {
	if len(e.chosen) == 0 {
		return
	}
	// Dominance prune: a cycle that leaves some available gate's qubits
	// both free is dominated by the same cycle plus that gate — the
	// superset child has the same mapping and strictly fewer remaining
	// gates (any completion of the smaller child, minus the gate's own op,
	// completes the larger one), and it is enumerated separately. Only
	// gate-maximal cycles survive; in particular every swap-only cycle
	// with an unblocked available gate dies here.
	for _, ci := range e.expGateList {
		if !e.used[e.ceU[ci]] && !e.used[e.ceV[ci]] {
			return
		}
	}

	// Build the child state in the parent's frame.
	copy(e.childState, e.expState)
	childRem := e.expRem &^ e.expGateBits
	binary.LittleEndian.PutUint64(e.childState[e.np:], childRem)
	for _, ca := range e.chosen {
		if !ca.gate {
			p, q := e.ceU[ca.ci], e.ceV[ca.ci]
			e.childState[p], e.childState[q] = e.childState[q], e.childState[p]
		}
	}

	state, aut := e.canonical()
	hash := hashState(state)
	id, slot := e.find(state, hash)
	newG := e.expG + 1
	if id >= 0 && e.g[id] <= newG {
		return
	}
	// The arriving cycle, recorded in the parent's frame.
	off := int32(len(e.ops))
	for _, ca := range e.chosen {
		p, q := int(e.ceU[ca.ci]), int(e.ceV[ca.ci])
		if ca.gate {
			e.ops = append(e.ops, Op{P: p, Q: q, Gate: true, Tag: e.edges[ca.ei]})
		} else {
			e.ops = append(e.ops, Op{P: p, Q: q})
		}
	}
	n := int32(len(e.chosen))
	if id >= 0 {
		// Decrease-key: a cheaper path to a known state. Its h (and cost
		// cache) depend only on the state and stay valid.
		e.g[id] = newG
		e.parent[id] = e.expID
		e.autOf[id] = aut
		e.viaOff[id], e.viaLen[id] = off, n
		e.heapFix(id)
		return
	}

	// New state: compute its heuristic incrementally — copy the parent's
	// per-edge costs and recompute only edges incident to logical qubits
	// the cycle touched (moved by a swap or degree-changed by a gate).
	e.touch = e.touch[:0]
	copy(e.childL2p, e.l2p[:e.nl])
	for _, ca := range e.chosen {
		if ca.gate {
			e.touch = append(e.touch, e.edgeU[ca.ei], e.edgeV[ca.ei])
			continue
		}
		p, q := e.ceU[ca.ci], e.ceV[ca.ci]
		if lu := int(e.expState[p]) - 1; lu >= 0 {
			e.childL2p[lu] = q
			e.touch = append(e.touch, int16(lu))
		}
		if lv := int(e.expState[q]) - 1; lv >= 0 {
			e.childL2p[lv] = p
			e.touch = append(e.touch, int16(lv))
		}
	}
	copy(e.childCost, e.expCost)
	touched := uint64(0)
	for _, l := range e.touch {
		touched |= e.vertexMask[l]
	}
	for m := touched & childRem; m != 0; m &= m - 1 {
		ei := bits.TrailingZeros64(m)
		u, v := e.edgeU[ei], e.edgeV[ei]
		d := e.dist[e.childL2p[u]][e.childL2p[v]]
		du := bits.OnesCount64(childRem & e.vertexMask[u])
		dv := bits.OnesCount64(childRem & e.vertexMask[v])
		e.childCost[ei] = costClosed(d, du, dv)
	}
	h := int32(0)
	for m := childRem; m != 0; m &= m - 1 {
		if c := int32(e.childCost[bits.TrailingZeros64(m)]); c > h {
			h = c
		}
	}
	e.insert(state, hash, slot, newG, h, e.expID, aut, off, n)
}

// extract rebuilds the schedule by walking the parent chain, composing the
// canonicalization automorphisms so every cycle is reported in the original
// (root) frame.
func (e *engine) extract(goal int32) []Cycle {
	var chain []int32
	for id := goal; id >= 0; id = e.parent[id] {
		chain = append(chain, id)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	out := make([]Cycle, 0, len(chain)-1)
	if len(e.auts) == 1 {
		for _, id := range chain[1:] {
			cyc := make(Cycle, e.viaLen[id])
			copy(cyc, e.ops[e.viaOff[id]:e.viaOff[id]+e.viaLen[id]])
			out = append(out, cyc)
		}
		return out
	}
	// tau maps the true (root-frame) state to the stored canonical frame;
	// via ops are recorded in the parent's stored frame, so each op's true
	// qubits are tau^{-1} of the recorded ones.
	tau := make([]int16, e.np)
	tauInv := make([]int16, e.np)
	copy(tau, e.auts[e.autOf[chain[0]]])
	invert(tau, tauInv)
	for _, id := range chain[1:] {
		opsv := e.ops[e.viaOff[id] : e.viaOff[id]+e.viaLen[id]]
		cyc := make(Cycle, len(opsv))
		for i, op := range opsv {
			cyc[i] = Op{P: int(tauInv[op.P]), Q: int(tauInv[op.Q]), Gate: op.Gate, Tag: op.Tag}
		}
		out = append(out, cyc)
		sigma := e.auts[e.autOf[id]]
		for p := range tau {
			tau[p] = sigma[tau[p]]
		}
		invert(tau, tauInv)
	}
	return out
}

func invert(perm, inv []int16) {
	for p, q := range perm {
		inv[q] = int16(p)
	}
}

// --- open heap with decrease-key -----------------------------------------

// heapLess orders by f = g + h, ties broken toward larger g (prefers deeper
// nodes, speeding up goal discovery — same tie-break as the reference).
func (e *engine) heapLess(x, y int32) bool {
	fx, fy := e.g[x]+e.h[x], e.g[y]+e.h[y]
	if fx != fy {
		return fx < fy
	}
	return e.g[x] > e.g[y]
}

func (e *engine) heapPush(id int32) {
	e.heap = append(e.heap, id)
	e.heapPos[id] = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
	if len(e.heap) > e.peakOpen {
		e.peakOpen = len(e.heap)
	}
}

func (e *engine) heapPop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heapPos[e.heap[0]] = 0
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	e.heapPos[top] = -1
	return top
}

// heapFix restores the heap invariant after id's priority improved,
// re-opening the node if it had already been expanded.
func (e *engine) heapFix(id int32) {
	pos := e.heapPos[id]
	if pos < 0 {
		e.heapPush(id)
		return
	}
	e.siftUp(int(pos))
	e.siftDown(int(e.heapPos[id]))
}

func (e *engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[p]) {
			return
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && e.heapLess(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && e.heapLess(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		e.heapSwap(i, m)
		i = m
	}
}

func (e *engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heapPos[e.heap[i]] = int32(i)
	e.heapPos[e.heap[j]] = int32(j)
}

// --- pooled scratch sizing ------------------------------------------------

func growI16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func fillI16(s []int16, v int16) {
	for i := range s {
		s[i] = v
	}
}

func fillI32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
