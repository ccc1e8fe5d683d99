package greedy

import (
	"fmt"
	"math"
	"sync"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// engine is the packed flat-arena greedy scheduler. All per-cycle state
// lives in reusable int32 arenas indexed by physical qubit, coupling id, or
// gate id; membership sets are epoch-marked arrays (one int64 compare, no
// clearing); gate distances are maintained incrementally under SWAPs; and
// the compiled gate list grows in a recycled arena. Engines are pooled via
// sync.Pool, so a warm engine compiles with zero steady-state allocations
// (pinned by TestPackedEngineZeroAllocs).
//
// The engine must replay every heuristic decision of the reference
// implementation (reference_test.go) exactly — same iteration orders, same
// float accumulation orders, same tie-breaks — because the differential
// suite requires byte-identical circuits. Comments below flag the spots
// where the replication is order-sensitive.
//
// Epoch generations increase monotonically for the life of the engine and
// are never reset, even when the engine is rebound to a new architecture:
// a mark is "set" only when it equals the current generation, and every
// stale slot (zero-filled fresh allocation or a value from an earlier
// cycle/compile) holds a strictly smaller number.
type engine struct {
	// --- architecture-derived, rebuilt only when the arch changes ---
	a      *arch.Arch
	n      int     // physical qubit count
	dist   []int16 // n×n flat all-pairs coupling distances (int16: diameter < 32k always; halves the cache footprint of the hottest random-access array)
	nbrOff []int32 // CSR offsets per physical qubit (n+1)
	nbrDat []int32 // neighbour physical qubit, a.G.Neighbors order
	nbrCid []int32 // coupling id parallel to nbrDat
	coupU  []int32 // canonical endpoints per coupling id (U < V),
	coupV  []int32 // in a.G.Edges() order
	cidAt  []int32 // n×n flat (p,q) -> coupling id, -1 if uncoupled
	nCoup  int
	diam   int
	escort int // escort window: diam/8 floored at 2
	stallL int // stall limit: diam + 8

	// crosstalk partner couplings per coupling id, built lazily on the
	// first CrosstalkAware compile against this arch
	xtBuilt bool
	xtOff   []int32
	xtDat   []int32

	// --- per-compile problem encoding ---
	nl   int     // logical qubit count
	m    int     // gate (problem edge) count
	gU   []int32 // gate endpoints (gU < gV), canonical Edges() order
	gV   []int32
	gOff []int32 // gate-id run start per U endpoint (nl+1), for findGid
	pOff []int32 // problem CSR offsets per logical (nl+1)
	pDat []int32 // neighbour logical, problem.Neighbors order
	pGid []int32 // gate id parallel to pDat

	// --- per-compile noise precomputation ---
	noisy   bool
	veto    float64
	edgeErr []float64 // per coupling id

	// --- mutable compile state ---
	l2p     []int32
	p2l     []int32
	initMap []int32
	gDist   []int16 // per gate id, maintained incrementally by applySwap
	// Live remaining-gate set as compacted per-logical partner lists in a
	// CSR arena sharing pOff (swap-with-last removal, O(1) via gPosU/gPosV
	// back-pointers). Every hot scan — refreshGateDists, swapGain, the
	// benefit partner build — walks only live entries, so the work shrinks
	// with the remaining program instead of probing a bitset per edge.
	rDat  []int32 // partner logical qubit
	rGid  []int32 // gate id parallel to rDat
	rCnt  []int32 // live entries per logical
	gPosU []int32 // per gate: its position in gU's list
	gPosV []int32 // per gate: its position in gV's list
	// remOrder is the reference's `remaining` slice, including its in-place
	// permutation by the escort-phase distance counting sort.
	remOrder []int32
	gates    []circuit.Gate // output arena
	cycles   int

	// --- per-cycle scratch (epoch-marked or list-reset) ---
	exec     []int32 // executable gate ids, remOrder order
	execCid  []int32 // coupling id per exec entry
	qCnt     []int32 // per phys: exec entries touching it (reset via qTouch)
	qStart   []int32 // per phys: CSR start into qDat
	qFill    []int32
	qDat     []int32
	qTouch   []int32 // phys qubits with qCnt != 0
	cDeg     []int32 // conflict-graph degree per exec node
	cOff     []int32
	cCur     []int32
	cAdj     []int32
	degCnt   []int32 // counting-sort workspace over degrees
	order    []int32 // colouring order (degree desc, stable)
	colors   []int32
	colorMk  []int64 // epoch mark per colour
	colorGen int64
	classCnt []int32
	sched    []int32 // scheduled gate ids
	schedMk  []int64 // per gate id
	schedGen int64
	// busyB is the per-phys busy flag for the current cycle, reset via
	// busyList (a one-byte load beats an epoch compare in the accumulation
	// loop, the engine's hottest path).
	busyB    []uint8
	busyList []int32
	coupMk   []int64 // per coupling id: exec membership this cycle
	coupGen  int64
	coupGate []int32 // coupling id -> exec node index
	// benefit accumulates each coupling's signed SWAP benefit as an int32:
	// every contribution is an integer, so float64 accumulation in any
	// order (the reference's map-ordered sums included) yields the exact
	// same value as one final int-to-float conversion — which frees the
	// loop from the reference's first-touch dirty-list bookkeeping.
	benefit  []int32
	wedgeCid []int32 // SWAP candidates, sorted (W desc, U, V)
	wedgeW   []float64
	chosen   []bool
	usedVal  []int32 // per phys: chosen wedge index, -1 = tombstone
	usedMk   []int64
	usedGen  int64
	touched  []bool  // per phys
	bktCnt   []int32 // distance counting sort (diam+2 buckets)
	sortTmp  []int32
	scPos    []int32 // benefit-loop scratch: one qubit's eligible partner
	scD      []int16 // positions and gate distances
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// acquireEngine returns a pooled engine bound to a; arch-derived structures
// are rebuilt only when the pooled engine last served a different arch, so
// a server compiling against one device pays the binding cost once.
func acquireEngine(a *arch.Arch) *engine {
	e := enginePool.Get().(*engine)
	if e.a != a {
		e.bindArch(a)
	}
	return e
}

func releaseEngine(e *engine) { enginePool.Put(e) }

// growI32 returns s with length n, reusing capacity. Contents are
// unspecified — callers own initialisation.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growI16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (e *engine) bindArch(a *arch.Arch) {
	e.a = a
	n := a.N()
	e.n = n
	dist := a.Distances()
	e.dist = growI16(e.dist, n*n)
	for p := 0; p < n; p++ {
		row := dist[p]
		for q := 0; q < n; q++ {
			e.dist[p*n+q] = int16(row[q])
		}
	}
	couplings := a.G.Edges()
	nc := len(couplings)
	e.nCoup = nc
	e.coupU = growI32(e.coupU, nc)
	e.coupV = growI32(e.coupV, nc)
	e.cidAt = growI32(e.cidAt, n*n)
	for i := range e.cidAt {
		e.cidAt[i] = -1
	}
	for i, c := range couplings {
		e.coupU[i], e.coupV[i] = int32(c.U), int32(c.V)
		e.cidAt[c.U*n+c.V] = int32(i)
		e.cidAt[c.V*n+c.U] = int32(i)
	}
	e.nbrOff = growI32(e.nbrOff, n+1)
	total := 0
	for p := 0; p < n; p++ {
		e.nbrOff[p] = int32(total)
		total += len(a.G.Neighbors(p))
	}
	e.nbrOff[n] = int32(total)
	e.nbrDat = growI32(e.nbrDat, total)
	e.nbrCid = growI32(e.nbrCid, total)
	for p := 0; p < n; p++ {
		off := int(e.nbrOff[p])
		for k, w := range a.G.Neighbors(p) {
			e.nbrDat[off+k] = int32(w)
			e.nbrCid[off+k] = e.cidAt[p*n+w]
		}
	}
	e.diam = a.Diameter()
	e.escort = e.diam / 8
	if e.escort < 2 {
		e.escort = 2
	}
	e.stallL = e.diam + 8
	e.xtBuilt = false

	// Per-phys / per-coupling persistent scratch. Mark arrays need no
	// zeroing (generations never reset — see the type comment), but value
	// arrays consulted without a mark guard must start clean.
	e.p2l = growI32(e.p2l, n)
	e.busyB = growU8(e.busyB, n)
	e.usedMk = growI64(e.usedMk, n)
	e.usedVal = growI32(e.usedVal, n)
	e.qCnt = growI32(e.qCnt, n)
	e.qStart = growI32(e.qStart, n)
	e.qFill = growI32(e.qFill, n)
	if cap(e.touched) < n {
		e.touched = make([]bool, n)
	} else {
		e.touched = e.touched[:n]
	}
	e.coupMk = growI64(e.coupMk, nc)
	e.coupGate = growI32(e.coupGate, nc)
	e.benefit = growI32(e.benefit, nc)
	e.edgeErr = growF64(e.edgeErr, nc)
	e.bktCnt = growI32(e.bktCnt, e.diam+2)
	for i := 0; i < n; i++ {
		e.qCnt[i] = 0
		e.busyB[i] = 0
	}
	e.busyList = e.busyList[:0]
	e.qTouch = e.qTouch[:0]
}

// ensureXtalk builds the crosstalk partner CSR over coupling ids,
// preserving noise.CrosstalkPairs order per coupling (the reference
// appends partners to xtalk[e] in exactly that order).
func (e *engine) ensureXtalk() {
	if e.xtBuilt {
		return
	}
	pairs := noise.CrosstalkPairs(e.a)
	e.xtOff = growI32(e.xtOff, e.nCoup+1)
	for i := range e.xtOff {
		e.xtOff[i] = 0
	}
	for _, p := range pairs {
		e.xtOff[e.cidAt[p[0].U*e.n+p[0].V]+1]++
		e.xtOff[e.cidAt[p[1].U*e.n+p[1].V]+1]++
	}
	for i := 0; i < e.nCoup; i++ {
		e.xtOff[i+1] += e.xtOff[i]
	}
	e.xtDat = growI32(e.xtDat, int(e.xtOff[e.nCoup]))
	e.sortTmp = growI32(e.sortTmp, e.nCoup)
	cur := e.sortTmp
	copy(cur, e.xtOff[:e.nCoup])
	for _, p := range pairs {
		ca := e.cidAt[p[0].U*e.n+p[0].V]
		cb := e.cidAt[p[1].U*e.n+p[1].V]
		e.xtDat[cur[ca]] = cb
		cur[ca]++
		e.xtDat[cur[cb]] = ca
		cur[cb]++
	}
	e.xtBuilt = true
}

// remRemove deletes an executed gate from both endpoints' live partner
// lists (swap-with-last; back-pointers keep removal O(1)).
func (e *engine) remRemove(gid int32) {
	e.sideRemove(e.gU[gid], e.gPosU[gid])
	e.sideRemove(e.gV[gid], e.gPosV[gid])
}

func (e *engine) sideRemove(l, pos int32) {
	off := e.pOff[l]
	last := e.rCnt[l] - 1
	mv := e.rGid[off+last]
	e.rDat[off+pos] = e.rDat[off+last]
	e.rGid[off+pos] = mv
	if l == e.gU[mv] {
		e.gPosU[mv] = pos
	} else {
		e.gPosV[mv] = pos
	}
	e.rCnt[l] = last
}

// findGid returns the gate id of logical pair {u, v}, or -1 if the pair is
// not a problem edge. Gate ids are sorted by (U, V), so the lookup is a
// binary search within U's contiguous run.
func (e *engine) findGid(u, v int32) int32 {
	if u > v {
		u, v = v, u
	}
	lo, hi := e.gOff[u], e.gOff[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if e.gV[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < e.gOff[u+1] && e.gV[lo] == v {
		return lo
	}
	return -1
}

// appendGate validates coupling like circuit.Builder and appends to the
// arena. Gate values are bit-identical to the builder's (Swap gates carry
// the zero Tag and Tagged=false).
func (e *engine) appendGate(kind circuit.Kind, p, q int32, angle float64, gu, gv int32, tagged bool) {
	if e.cidAt[int(p)*e.n+int(q)] < 0 {
		panic(fmt.Sprintf("circuit: physical qubits %d,%d not coupled on %s", p, q, e.a.Name))
	}
	g := circuit.Gate{Kind: kind, Q0: int(p), Q1: int(q), Angle: angle}
	if tagged {
		g.Tag = graph.Edge{U: int(gu), V: int(gv)}
		g.Tagged = true
	}
	e.gates = append(e.gates, g)
}

// applySwap exchanges the occupants of physical p, q and incrementally
// refreshes the cached distance of every gate incident to a moved logical
// — the O(deg) update that replaces the reference's on-demand recomputes.
func (e *engine) applySwap(p, q int32) {
	lp, lq := e.p2l[p], e.p2l[q]
	e.p2l[p], e.p2l[q] = lq, lp
	if lp >= 0 {
		e.l2p[lp] = q
	}
	if lq >= 0 {
		e.l2p[lq] = p
	}
	if lp >= 0 {
		e.refreshGateDists(lp)
	}
	if lq >= 0 {
		e.refreshGateDists(lq)
	}
}

// refreshGateDists recomputes the distance of every REMAINING gate
// incident to logical l after l's qubit moved. Completed gates' distances
// are never read again (remOrder, the stall walk, and swapGain all iterate
// remaining gates only), so the live list suffices.
func (e *engine) refreshGateDists(l int32) {
	row := int(e.l2p[l]) * e.n
	off := e.pOff[l]
	for k := off; k < off+e.rCnt[l]; k++ {
		e.gDist[e.rGid[k]] = e.dist[row+int(e.l2p[e.rDat[k]])]
	}
}

// forcedSwap mirrors reference_test.go forcedSwap: the lowest-error
// distance-reducing swap at either endpoint, neighbours of pu before pv,
// strict-< error preference, canonical edge orientation.
func (e *engine) forcedSwap(gid int32) (int32, int32) {
	pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
	d := e.gDist[gid]
	var bu, bv int32
	bestErr := math.Inf(1)
	found := false
	for k := e.nbrOff[pu]; k < e.nbrOff[pu+1]; k++ {
		w := e.nbrDat[k]
		if e.dist[int(w)*e.n+int(pv)] >= d {
			continue
		}
		err := 0.0
		if e.noisy {
			err = e.edgeErr[e.nbrCid[k]]
		}
		if !found || err < bestErr {
			if pu < w {
				bu, bv = pu, w
			} else {
				bu, bv = w, pu
			}
			bestErr, found = err, true
		}
	}
	for k := e.nbrOff[pv]; k < e.nbrOff[pv+1]; k++ {
		w := e.nbrDat[k]
		if e.dist[int(w)*e.n+int(pu)] >= d {
			continue
		}
		err := 0.0
		if e.noisy {
			err = e.edgeErr[e.nbrCid[k]]
		}
		if !found || err < bestErr {
			if pv < w {
				bu, bv = pv, w
			} else {
				bu, bv = w, pv
			}
			bestErr, found = err, true
		}
	}
	if found {
		return bu, bv
	}
	// Unreachable on connected architectures; move anywhere as last resort.
	w := e.nbrDat[e.nbrOff[pu]]
	if pu < w {
		return pu, w
	}
	return w, pu
}

// swapGain mirrors reference_test.go swapGain on the packed encoding: the
// total distance reduction over remaining gates incident to the occupants
// of (pu, pv) if they were exchanged after executing gate gid.
func (e *engine) swapGain(gid, pu, pv int32) int {
	gain := 0
	// gU side moves pu -> pv, gV side moves pv -> pu (reference acc order).
	for side := 0; side < 2; side++ {
		var l int32
		var fromRow, toRow int
		if side == 0 {
			l = e.gU[gid]
			fromRow, toRow = int(pu)*e.n, int(pv)*e.n
		} else {
			l = e.gV[gid]
			fromRow, toRow = int(pv)*e.n, int(pu)*e.n
		}
		off := e.pOff[l]
		for k := off; k < off+e.rCnt[l]; k++ {
			pw := e.l2p[e.rDat[k]]
			if pw == pu || pw == pv {
				continue
			}
			gain += int(e.dist[fromRow+int(pw)]) - int(e.dist[toRow+int(pw)])
		}
	}
	return gain
}

// xtalkConflict mirrors reference_test.go xtalkConflict: does coupling cid
// crosstalk with any gate scheduled this cycle?
func (e *engine) xtalkConflict(cid int32) bool {
	for t := e.xtOff[cid]; t < e.xtOff[cid+1]; t++ {
		pcid := e.xtDat[t]
		lu, lv := e.p2l[e.coupU[pcid]], e.p2l[e.coupV[pcid]]
		if lu < 0 || lv < 0 {
			continue
		}
		if g := e.findGid(lu, lv); g >= 0 && e.schedMk[g] == e.schedGen {
			return true
		}
	}
	return false
}

// scheduleGates is the packed §6.2 conflict-colouring step over e.exec.
// It reproduces reference_test.go scheduleGates exactly: conflict adjacency
// lists are built in the same AddEdge timestamp order, the colouring
// replays graph.GreedyColoring (stable degree-descending order, colour
// guard c <= deg(v)), and the largest class is the lowest colour on ties
// with members in ascending exec order. The result lands in e.sched.
func (e *engine) scheduleGates(useXt bool) {
	e.sched = e.sched[:0]
	k := len(e.exec)
	if k == 0 {
		return
	}
	// Group exec nodes by physical qubit (ascending exec order per group —
	// the reference's byQubit append order).
	e.qTouch = e.qTouch[:0]
	for _, gid := range e.exec {
		pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
		if e.qCnt[pu] == 0 {
			e.qTouch = append(e.qTouch, pu)
		}
		e.qCnt[pu]++
		if e.qCnt[pv] == 0 {
			e.qTouch = append(e.qTouch, pv)
		}
		e.qCnt[pv]++
	}
	cur := int32(0)
	for _, q := range e.qTouch {
		e.qStart[q] = cur
		e.qFill[q] = cur
		cur += e.qCnt[q]
	}
	e.qDat = growI32(e.qDat, int(cur))
	for i, gid := range e.exec {
		pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
		e.qDat[e.qFill[pu]] = int32(i)
		e.qFill[pu]++
		e.qDat[e.qFill[pv]] = int32(i)
		e.qFill[pv]++
	}
	// Register exec couplings for the crosstalk pass.
	if useXt {
		e.coupGen++
		for i := 0; i < k; i++ {
			e.coupMk[e.execCid[i]] = e.coupGen
			e.coupGate[e.execCid[i]] = int32(i)
		}
	}
	// Conflict-pair enumeration, twice: degree count, then CSR fill. Both
	// passes walk pairs in the reference's AddEdge timestamp order, so each
	// adjacency list matches the reference's append order. Shared-qubit
	// pairs: a qubit's group is ascending, so "gates added before i" are
	// exactly the entries j < i (i's own entry terminates the scan).
	// Crosstalk pairs dedupe to their first AddEdge, which happens at outer
	// index min(i,j) — hence the j > i rule.
	e.cDeg = growI32(e.cDeg, k)
	for i := 0; i < k; i++ {
		e.cDeg[i] = 0
	}
	for i := 0; i < k; i++ {
		gid := e.exec[i]
		pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
		for s := 0; s < 2; s++ {
			q := pu
			if s == 1 {
				q = pv
			}
			for t := e.qStart[q]; ; t++ {
				j := e.qDat[t]
				if j >= int32(i) {
					break
				}
				e.cDeg[i]++
				e.cDeg[j]++
			}
		}
	}
	if useXt {
		for i := 0; i < k; i++ {
			ce := e.execCid[i]
			for t := e.xtOff[ce]; t < e.xtOff[ce+1]; t++ {
				pcid := e.xtDat[t]
				if e.coupMk[pcid] != e.coupGen {
					continue
				}
				if j := e.coupGate[pcid]; j > int32(i) {
					e.cDeg[i]++
					e.cDeg[j]++
				}
			}
		}
	}
	e.cOff = growI32(e.cOff, k+1)
	e.cCur = growI32(e.cCur, k)
	total := int32(0)
	for i := 0; i < k; i++ {
		e.cOff[i] = total
		e.cCur[i] = total
		total += e.cDeg[i]
	}
	e.cOff[k] = total
	e.cAdj = growI32(e.cAdj, int(total))
	for i := 0; i < k; i++ {
		gid := e.exec[i]
		pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
		for s := 0; s < 2; s++ {
			q := pu
			if s == 1 {
				q = pv
			}
			for t := e.qStart[q]; ; t++ {
				j := e.qDat[t]
				if j >= int32(i) {
					break
				}
				e.cAdj[e.cCur[i]] = j
				e.cCur[i]++
				e.cAdj[e.cCur[j]] = int32(i)
				e.cCur[j]++
			}
		}
	}
	if useXt {
		for i := 0; i < k; i++ {
			ce := e.execCid[i]
			for t := e.xtOff[ce]; t < e.xtOff[ce+1]; t++ {
				pcid := e.xtDat[t]
				if e.coupMk[pcid] != e.coupGen {
					continue
				}
				if j := e.coupGate[pcid]; j > int32(i) {
					e.cAdj[e.cCur[i]] = j
					e.cCur[i]++
					e.cAdj[e.cCur[j]] = int32(i)
					e.cCur[j]++
				}
			}
		}
	}
	// Release the qubit grouping (qStart/qFill stay stale, only read for
	// touched qubits).
	for _, q := range e.qTouch {
		e.qCnt[q] = 0
	}
	// Stable degree-descending order via counting sort (== SliceStable).
	maxDeg := int32(0)
	for i := 0; i < k; i++ {
		if e.cDeg[i] > maxDeg {
			maxDeg = e.cDeg[i]
		}
	}
	e.degCnt = growI32(e.degCnt, int(maxDeg)+1)
	for d := int32(0); d <= maxDeg; d++ {
		e.degCnt[d] = 0
	}
	for i := 0; i < k; i++ {
		e.degCnt[e.cDeg[i]]++
	}
	pos := int32(0)
	for d := maxDeg; d >= 0; d-- {
		c := e.degCnt[d]
		e.degCnt[d] = pos
		pos += c
	}
	e.order = growI32(e.order, k)
	for i := 0; i < k; i++ {
		e.order[e.degCnt[e.cDeg[i]]] = int32(i)
		e.degCnt[e.cDeg[i]]++
	}
	// Greedy colouring: lowest colour not used by a neighbour, ignoring
	// neighbour colours above deg(v) (graph.GreedyColoring's used-array
	// length guard). A free colour always exists at c <= deg(v), so the
	// scan stays inside colorMk's maxDeg+2 length.
	e.colors = growI32(e.colors, k)
	for i := 0; i < k; i++ {
		e.colors[i] = -1
	}
	e.colorMk = growI64(e.colorMk, int(maxDeg)+2)
	for _, v := range e.order {
		dv := e.cDeg[v]
		e.colorGen++
		for t := e.cOff[v]; t < e.cOff[v+1]; t++ {
			if c := e.colors[e.cAdj[t]]; c >= 0 && c <= dv {
				e.colorMk[c] = e.colorGen
			}
		}
		c := int32(0)
		for e.colorMk[c] == e.colorGen {
			c++
		}
		e.colors[v] = c
	}
	maxColor := int32(0)
	for i := 0; i < k; i++ {
		if e.colors[i] > maxColor {
			maxColor = e.colors[i]
		}
	}
	e.classCnt = growI32(e.classCnt, int(maxColor)+1)
	for c := int32(0); c <= maxColor; c++ {
		e.classCnt[c] = 0
	}
	for i := 0; i < k; i++ {
		e.classCnt[e.colors[i]]++
	}
	best := int32(0)
	for c := int32(1); c <= maxColor; c++ {
		if e.classCnt[c] > e.classCnt[best] {
			best = c
		}
	}
	for i := 0; i < k; i++ {
		if e.colors[i] == best {
			e.sched = append(e.sched, e.exec[i])
		}
	}
}

// wedgeBefore is the reference's wedge comparator: weight descending, then
// canonical endpoints ascending. Distinct couplings make it a strict total
// order, so any correct sort reproduces sort.Slice's result.
func (e *engine) wedgeBefore(i, j int) bool {
	if e.wedgeW[i] != e.wedgeW[j] {
		return e.wedgeW[i] > e.wedgeW[j]
	}
	ci, cj := e.wedgeCid[i], e.wedgeCid[j]
	if e.coupU[ci] != e.coupU[cj] {
		return e.coupU[ci] < e.coupU[cj]
	}
	return e.coupV[ci] < e.coupV[cj]
}

func (e *engine) wedgeSwap(i, j int) {
	e.wedgeCid[i], e.wedgeCid[j] = e.wedgeCid[j], e.wedgeCid[i]
	e.wedgeW[i], e.wedgeW[j] = e.wedgeW[j], e.wedgeW[i]
}

// sortWedges is an in-place heapsort over the parallel wedge arrays (no
// allocation, unlike sort.Slice). The heap keeps the latest-sorting wedge
// at the root, so popping fills the tail and leaves ascending sort order.
func (e *engine) sortWedges() {
	n := len(e.wedgeCid)
	for i := n/2 - 1; i >= 0; i-- {
		e.siftWedge(i, n)
	}
	for end := n - 1; end > 0; end-- {
		e.wedgeSwap(0, end)
		e.siftWedge(0, end)
	}
}

func (e *engine) siftWedge(root, hi int) {
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && e.wedgeBefore(child, child+1) {
			child++
		}
		if !e.wedgeBefore(root, child) {
			return
		}
		e.wedgeSwap(root, child)
		root = child
	}
}

// matchWedges replays graph.MaxWeightMatching over the sorted wedges into
// e.chosen. Because the input is already in comparator order and the order
// is strict, the reference's internal stable sort is the identity — greedy
// selection and the improvement sweeps both run in wedge index order.
func (e *engine) matchWedges() {
	k := len(e.wedgeCid)
	if cap(e.chosen) < k {
		e.chosen = make([]bool, k)
	} else {
		e.chosen = e.chosen[:k]
	}
	for i := 0; i < k; i++ {
		e.chosen[i] = false
	}
	e.usedGen++
	for i := 0; i < k; i++ {
		cid := e.wedgeCid[i]
		u, v := e.coupU[cid], e.coupV[cid]
		if e.matchInUse(u) || e.matchInUse(v) {
			continue
		}
		e.chosen[i] = true
		e.matchSet(u, int32(i))
		e.matchSet(v, int32(i))
	}
	for sweep := 0; sweep < 4 && e.matchImprove(); sweep++ {
	}
}

func (e *engine) matchInUse(q int32) bool {
	return e.usedMk[q] == e.usedGen && e.usedVal[q] >= 0
}

func (e *engine) matchSet(q, i int32) {
	e.usedMk[q] = e.usedGen
	e.usedVal[q] = i
}

func (e *engine) matchDel(q int32) { e.usedVal[q] = -1 }

// matchImprove is one MaxWeightMatching improvement sweep: for each
// unchosen wedge blocked by exactly one chosen wedge, try dropping the
// blocker and adding this wedge plus the best now-free wedge.
func (e *engine) matchImprove() bool {
	k := len(e.wedgeCid)
	for i := 0; i < k; i++ {
		if e.chosen[i] {
			continue
		}
		cid := e.wedgeCid[i]
		eu, ev := e.coupU[cid], e.coupV[cid]
		okU, okV := e.matchInUse(eu), e.matchInUse(ev)
		var blocker int32
		switch {
		case okU && okV && e.usedVal[eu] == e.usedVal[ev]:
			blocker = e.usedVal[eu]
		case okU && !okV:
			blocker = e.usedVal[eu]
		case okV && !okU:
			blocker = e.usedVal[ev]
		default:
			continue
		}
		bcid := e.wedgeCid[blocker]
		bu, bv := e.coupU[bcid], e.coupV[bcid]
		e.matchDel(bu)
		e.matchDel(bv)
		e.matchSet(eu, int32(i))
		e.matchSet(ev, int32(i))
		gain := e.wedgeW[i] - e.wedgeW[blocker]
		extra := -1
		for j := 0; j < k; j++ {
			if e.chosen[j] || j == i {
				continue
			}
			fcid := e.wedgeCid[j]
			if e.matchInUse(e.coupU[fcid]) || e.matchInUse(e.coupV[fcid]) {
				continue
			}
			if extra < 0 || e.wedgeW[j] > e.wedgeW[extra] {
				extra = j
			}
		}
		if extra >= 0 {
			gain += e.wedgeW[extra]
		}
		if gain > 1e-12 {
			e.chosen[blocker] = false
			e.chosen[i] = true
			if extra >= 0 {
				e.chosen[extra] = true
				fcid := e.wedgeCid[extra]
				e.matchSet(e.coupU[fcid], int32(extra))
				e.matchSet(e.coupV[fcid], int32(extra))
			}
			return true
		}
		e.matchDel(eu)
		e.matchDel(ev)
		e.matchSet(bu, blocker)
		e.matchSet(bv, blocker)
	}
	return false
}

// doCheckpoint copies the live mapping into a fresh []int (the Checkpoint
// API hands ownership to the callee) and invokes the hook.
func (e *engine) doCheckpoint(fn func(prefixLen int, l2p []int, cycle int), cycle int) {
	l2p := make([]int, e.nl)
	for l := range l2p {
		l2p[l] = int(e.l2p[l])
	}
	fn(len(e.gates), l2p, cycle)
}

// run executes the scheduling loop, leaving the compiled gates, mappings,
// and cycle count in the engine's arenas; result() materialises them.
// Structure and ordering track referenceCompile statement for statement.
func (e *engine) run(problem *graph.Graph, initial []int, opts Options) error {
	if opts.Angle == 0 {
		opts.Angle = 1
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 300*e.n + 2000
	}
	n := e.n
	nl := problem.N()
	e.nl = nl
	e.gates = e.gates[:0]
	e.cycles = 0

	// Builder-equivalent mapping init, incl. the builder's programmer-error
	// panics with identical messages.
	if nl > n {
		panic(fmt.Sprintf("circuit: %d logical qubits exceed %d physical", nl, n))
	}
	e.l2p = growI32(e.l2p, nl)
	if initial == nil {
		for l := 0; l < nl; l++ {
			e.l2p[l] = int32(l)
		}
	} else {
		if len(initial) != nl {
			panic("circuit: initial mapping length mismatch")
		}
		for l, p := range initial {
			e.l2p[l] = int32(p)
		}
	}
	for p := 0; p < n; p++ {
		e.p2l[p] = -1
	}
	for l := 0; l < nl; l++ {
		p := e.l2p[l]
		if p < 0 || int(p) >= n || e.p2l[p] != -1 {
			panic(fmt.Sprintf("circuit: invalid initial mapping: logical %d -> physical %d", l, p))
		}
		e.p2l[p] = int32(l)
	}
	e.initMap = growI32(e.initMap, nl)
	copy(e.initMap, e.l2p)

	// Problem encoding: gate ids in canonical Edges() order (ascending U,
	// then V — collection per ascending u plus an insertion sort of each
	// run by V), CSR adjacency in Neighbors order.
	m := problem.M()
	e.m = m
	e.gU = growI32(e.gU, m)
	e.gV = growI32(e.gV, m)
	e.gOff = growI32(e.gOff, nl+1)
	e.pOff = growI32(e.pOff, nl+1)
	degTotal := 0
	for l := 0; l < nl; l++ {
		e.pOff[l] = int32(degTotal)
		degTotal += problem.Degree(l)
	}
	e.pOff[nl] = int32(degTotal)
	e.pDat = growI32(e.pDat, degTotal)
	e.pGid = growI32(e.pGid, degTotal)
	e.scPos = growI32(e.scPos, nl)
	e.scD = growI16(e.scD, nl)
	gi := int32(0)
	for u := 0; u < nl; u++ {
		e.gOff[u] = gi
		off := int(e.pOff[u])
		start := gi
		for k, w := range problem.Neighbors(u) {
			e.pDat[off+k] = int32(w)
			if w > u {
				e.gU[gi], e.gV[gi] = int32(u), int32(w)
				gi++
			}
		}
		for i := start + 1; i < gi; i++ {
			v := e.gV[i]
			j := i - 1
			for j >= start && e.gV[j] > v {
				e.gV[j+1] = e.gV[j]
				j--
			}
			e.gV[j+1] = v
		}
	}
	e.gOff[nl] = gi
	for l := 0; l < nl; l++ {
		for k := e.pOff[l]; k < e.pOff[l+1]; k++ {
			e.pGid[k] = e.findGid(int32(l), e.pDat[k])
		}
	}

	// Initial gate distances + disconnected-arch check, in Edges() order
	// like the reference's scan over `remaining`.
	e.gDist = growI16(e.gDist, m)
	e.schedMk = growI64(e.schedMk, m)
	for g := 0; g < m; g++ {
		d := e.dist[int(e.l2p[e.gU[g]])*n+int(e.l2p[e.gV[g]])]
		if d < 0 {
			return fmt.Errorf("%w: interaction %v spans disconnected parts of %s",
				ErrUnreachable, graph.Edge{U: int(e.gU[g]), V: int(e.gV[g])}, e.a.Name)
		}
		e.gDist[g] = d
	}
	e.rDat = growI32(e.rDat, degTotal)
	e.rGid = growI32(e.rGid, degTotal)
	e.rCnt = growI32(e.rCnt, nl)
	e.gPosU = growI32(e.gPosU, m)
	e.gPosV = growI32(e.gPosV, m)
	copy(e.rDat, e.pDat[:degTotal])
	copy(e.rGid, e.pGid[:degTotal])
	for l := 0; l < nl; l++ {
		off := e.pOff[l]
		e.rCnt[l] = e.pOff[l+1] - off
		for k := off; k < e.pOff[l+1]; k++ {
			gid := e.pGid[k]
			if int32(l) == e.gU[gid] {
				e.gPosU[gid] = k - off
			} else {
				e.gPosV[gid] = k - off
			}
		}
	}
	e.remOrder = growI32(e.remOrder, m)
	for g := 0; g < m; g++ {
		e.remOrder[g] = int32(g)
	}

	useXt := opts.CrosstalkAware
	if useXt {
		e.ensureXtalk()
	}
	e.noisy = opts.Noise != nil
	if e.noisy {
		// The reference recomputes the veto threshold and reads EdgeError
		// per cycle; both are pure in the model, so hoisting them out of
		// the loop changes nothing observable.
		e.veto = vetoThreshold(opts.Noise)
		for cid := 0; cid < e.nCoup; cid++ {
			e.edgeErr[cid] = opts.Noise.EdgeError(int(e.coupU[cid]), int(e.coupV[cid]))
		}
	}

	met := opts.Obs.Metrics()
	mCycles := met.Counter("greedy.cycles")
	mStalls := met.Counter("greedy.stall_walks")
	mSched := met.Histogram("greedy.scheduled_per_cycle")
	mSwaps := met.Histogram("greedy.swaps_per_cycle")

	cycle := 0
	stall := 0
	for len(e.remOrder) > 0 {
		if cycle >= maxCycles {
			return fmt.Errorf("%w after %d cycles (%d gates left)", ErrNoProgress, cycle, len(e.remOrder))
		}
		cycle++
		mCycles.Add(1)
		if opts.Interrupt != nil {
			if ierr := opts.Interrupt(); ierr != nil {
				return fmt.Errorf("%w at cycle %d: %w", ErrInterrupted, cycle, ierr)
			}
		}

		if stall > e.stallL {
			// Stall recovery: deterministically walk the closest gate home
			// one SWAP per cycle (first strict minimum in remaining order,
			// like reference closestGate).
			best, bd := e.remOrder[0], int16(math.MaxInt16)
			for _, gid := range e.remOrder {
				if e.gDist[gid] < bd {
					best, bd = gid, e.gDist[gid]
				}
			}
			mStalls.Add(1)
			if opts.Obs != nil { // skip building the attr slice untraced
				opts.Obs.Event(opts.ObsSpan, "greedy.stall_walk",
					obs.Int("cycle", cycle),
					obs.Int("remaining", len(e.remOrder)),
					obs.Int("distance", int(e.gDist[best])))
			}
			for e.gDist[best] != 1 { // distance 1 <=> endpoints coupled
				if cycle >= maxCycles {
					return fmt.Errorf("%w after %d cycles (stall walk)", ErrNoProgress, cycle)
				}
				if opts.Interrupt != nil {
					if ierr := opts.Interrupt(); ierr != nil {
						return fmt.Errorf("%w at cycle %d: %w", ErrInterrupted, cycle, ierr)
					}
				}
				su, sv := e.forcedSwap(best)
				e.appendGate(circuit.GateSwap, su, sv, 0, 0, 0, false)
				e.applySwap(su, sv)
				cycle++
			}
			e.appendGate(circuit.GateZZ, e.l2p[e.gU[best]], e.l2p[e.gV[best]], opts.Angle, e.gU[best], e.gV[best], true)
			e.remRemove(best)
			w := 0
			for _, gid := range e.remOrder {
				if gid != best {
					e.remOrder[w] = gid
					w++
				}
			}
			e.remOrder = e.remOrder[:w]
			stall = 0
			if opts.Checkpoint != nil {
				e.doCheckpoint(opts.Checkpoint, cycle)
			}
			continue
		}

		// --- Gate scheduling (conflict colouring). The incrementally
		// maintained gate distance doubles as the frontier test:
		// gDist == 1 <=> the endpoints are coupled. ---
		e.exec = e.exec[:0]
		e.execCid = e.execCid[:0]
		for _, gid := range e.remOrder {
			if e.gDist[gid] == 1 {
				e.exec = append(e.exec, gid)
				e.execCid = append(e.execCid, e.cidAt[int(e.l2p[e.gU[gid]])*n+int(e.l2p[e.gV[gid]])])
			}
		}
		e.scheduleGates(useXt)
		e.schedGen++
		for _, q := range e.busyList { // clear the previous cycle's flags
			e.busyB[q] = 0
		}
		e.busyList = e.busyList[:0]
		for _, gid := range e.sched {
			pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
			e.busyB[pu] = 1
			e.busyB[pv] = 1
			e.busyList = append(e.busyList, pu, pv)
			e.schedMk[gid] = e.schedGen
		}
		// Complete the colour class to a maximal conflict-free set: the
		// largest class can leave schedulable gates idle.
		for t, gid := range e.exec {
			if e.schedMk[gid] == e.schedGen {
				continue
			}
			pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
			if e.busyB[pu] != 0 || e.busyB[pv] != 0 {
				continue
			}
			if useXt && e.xtalkConflict(e.execCid[t]) {
				continue
			}
			e.sched = append(e.sched, gid)
			e.schedMk[gid] = e.schedGen
			e.busyB[pu] = 1
			e.busyB[pv] = 1
			e.busyList = append(e.busyList, pu, pv)
		}
		w := 0
		for _, gid := range e.remOrder {
			if e.schedMk[gid] == e.schedGen {
				e.remRemove(gid)
			} else {
				e.remOrder[w] = gid
				w++
			}
		}
		e.remOrder = e.remOrder[:w]
		mSched.Observe(int64(len(e.sched)))
		// Emit scheduled gates, unifying a gate with its SWAP when moving
		// the pair brings other remaining gates closer. The mapping is
		// live, so earlier ZZSwaps in this cycle shift later gates'
		// swapGain — same as the reference's builder-mediated loop.
		mapped := false
		for _, gid := range e.sched {
			pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
			if len(e.remOrder) > 0 && e.swapGain(gid, pu, pv) > 0 {
				e.appendGate(circuit.GateZZSwap, pu, pv, opts.Angle, e.gU[gid], e.gV[gid], true)
				e.applySwap(pu, pv)
				mapped = true
			} else {
				e.appendGate(circuit.GateZZ, pu, pv, opts.Angle, e.gU[gid], e.gV[gid], true)
			}
		}
		if len(e.remOrder) == 0 {
			break
		}

		// --- SWAP insertion (signed-benefit accumulation + matching),
		// reference proposeSwaps decision for decision. Every contribution
		// is an integer distance delta, so int32 accumulation in ANY order
		// equals the reference's float64 running sum exactly (integer-valued
		// float64 addition is associative), and the strict total order in
		// sortWedges makes the reference's first-touch dirty-list order
		// irrelevant. That frees the loop nest entirely: instead of walking
		// gates (whose endpoint/distance lookups chain 4+ dependent random
		// loads each), walk MAPPED QUBITS — build the qubit's eligible
		// partner list once, then per free neighbouring coupling accumulate
		// sum(d_g - dist[partner_g][w]) into a register against two
		// L1-resident distance rows (dist[x][w] == dist[w][x]).
		//
		// Per-side eligibility, restated from the reference's moveU/moveV
		// rules (busy endpoints hoisted; at d == 2 only the U endpoint may
		// move — both endpoints stepping toward each other via different
		// midpoints livelocks at distance 2 forever):
		//   U side (l < partner): eligible iff !busy[pu].
		//   V side (l > partner): eligible iff !busy[pv] and
		//                         (d != 2 or busy[pu]).
		benefit := e.benefit[:e.nCoup]
		for i := range benefit {
			benefit[i] = 0
		}
		l2p, busyB, dist := e.l2p, e.busyB, e.dist
		pOff, rDat, rCnt := e.pOff, e.rDat, e.rCnt
		nbrOff, nbrDat, nbrCid := e.nbrOff, e.nbrDat, e.nbrCid
		scPos, scD := e.scPos, e.scD
		for l := int32(0); int(l) < nl; l++ {
			p := l2p[l]
			if busyB[p] != 0 {
				continue
			}
			rowP := dist[int(p)*n : int(p)*n+n]
			np := 0
			off := pOff[l]
			for k := off; k < off+rCnt[l]; k++ {
				q := rDat[k]
				pq := l2p[q]
				d := rowP[pq] // == e.gDist of this live gate
				if d == 2 && l > q && busyB[pq] == 0 {
					continue // V side of a d==2 gate with a free U endpoint
				}
				scPos[np] = pq
				scD[np] = d
				np++
			}
			if np == 0 {
				continue
			}
			for k := nbrOff[p]; k < nbrOff[p+1]; k++ {
				w := nbrDat[k]
				if busyB[w] != 0 {
					continue
				}
				rowW := dist[int(w)*n : int(w)*n+n]
				acc := int32(0)
				for i := 0; i < np; i++ {
					pq := scPos[i]
					if pq == w {
						// The reference's nw == partner exclusion: moving
						// onto the partner's own qubit is no route.
						continue
					}
					acc += int32(scD[i]) - int32(rowW[pq])
				}
				benefit[nbrCid[k]] += acc
			}
		}
		e.wedgeCid = e.wedgeCid[:0]
		e.wedgeW = e.wedgeW[:0]
		for cid := int32(0); int(cid) < e.nCoup; cid++ {
			bnf := e.benefit[cid]
			if bnf <= 0 {
				// The noise discount q^3 is strictly positive, so wgt > 0
				// iff the raw integer benefit is.
				continue
			}
			wgt := float64(bnf)
			if e.noisy {
				er := e.edgeErr[cid]
				if er >= e.veto {
					// Outlier link: refuse to route through it; the stall
					// fallback still uses it if it is the only way forward.
					continue
				}
				// A SWAP is three CX on this link (§5.3).
				q := 1 - er
				wgt = float64(bnf) * q * q * q
			}
			e.wedgeCid = append(e.wedgeCid, cid)
			e.wedgeW = append(e.wedgeW, wgt)
		}
		e.sortWedges()
		e.matchWedges()
		swapCount := 0
		for i := range e.chosen {
			if e.chosen[i] {
				swapCount++
			}
		}
		for i := range e.touched {
			e.touched[i] = false
		}
		for _, q := range e.busyList {
			e.touched[q] = true
		}
		for i, ok := range e.chosen {
			if !ok {
				continue
			}
			cid := e.wedgeCid[i]
			su, sv := e.coupU[cid], e.coupV[cid]
			e.appendGate(circuit.GateSwap, su, sv, 0, 0, 0, false)
			e.applySwap(su, sv)
			e.touched[su], e.touched[sv] = true, true
			mapped = true
		}
		// Escort walks over gates ordered by live distance (stable
		// counting sort, in place over remOrder — the reference permutes
		// `remaining` the same way).
		nb := e.diam + 2
		for d := 0; d < nb; d++ {
			e.bktCnt[d] = 0
		}
		for _, gid := range e.remOrder {
			d := int(e.gDist[gid])
			if d >= nb {
				d = nb - 1
			}
			e.bktCnt[d]++
		}
		pos := int32(0)
		for d := 0; d < nb; d++ {
			c := e.bktCnt[d]
			e.bktCnt[d] = pos
			pos += c
		}
		e.sortTmp = growI32(e.sortTmp, len(e.remOrder))
		for _, gid := range e.remOrder {
			d := int(e.gDist[gid])
			if d >= nb {
				d = nb - 1
			}
			e.sortTmp[e.bktCnt[d]] = gid
			e.bktCnt[d]++
		}
		copy(e.remOrder, e.sortTmp[:len(e.remOrder)])
		dmin := int16(0)
		if len(e.remOrder) > 0 {
			dmin = e.gDist[e.remOrder[0]]
		}
		for _, gid := range e.remOrder {
			pu, pv := e.l2p[e.gU[gid]], e.l2p[e.gV[gid]]
			if e.touched[pu] || e.touched[pv] {
				continue
			}
			d := e.gDist[gid]
			if d <= 1 {
				// About to execute: protect from farther gates' escorts.
				e.touched[pu], e.touched[pv] = true, true
				continue
			}
			if d > dmin+int16(e.escort) {
				// Far gates wait; escorting everything burns ~3x the SWAPs
				// for no depth gain.
				break
			}
			su, sv := e.forcedSwap(gid)
			if e.touched[su] || e.touched[sv] {
				continue
			}
			e.appendGate(circuit.GateSwap, su, sv, 0, 0, 0, false)
			e.applySwap(su, sv)
			e.touched[su], e.touched[sv] = true, true
			e.touched[pu], e.touched[pv] = true, true
			mapped = true
			swapCount++
		}
		mSwaps.Observe(int64(swapCount))
		if len(e.sched) > 0 {
			stall = 0
		} else {
			stall++
		}
		if mapped && opts.Checkpoint != nil {
			e.doCheckpoint(opts.Checkpoint, cycle)
		}
	}
	e.cycles = cycle
	return nil
}

// result materialises the arena state into the public Result. These
// exact-size copies are the only steady-state allocations of a pooled
// compile; the Result owns its memory outright and the engine returns to
// the pool.
func (e *engine) result() *Result {
	gates := make([]circuit.Gate, len(e.gates))
	copy(gates, e.gates)
	ini := make([]int, e.nl)
	fin := make([]int, e.nl)
	for l := 0; l < e.nl; l++ {
		ini[l] = int(e.initMap[l])
		fin[l] = int(e.l2p[l])
	}
	return &Result{
		Circuit: &circuit.Circuit{NQubits: e.n, Gates: gates},
		Initial: ini,
		Final:   fin,
		Cycles:  e.cycles,
	}
}

func (e *engine) compile(problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	if err := e.run(problem, initial, opts); err != nil {
		return nil, err
	}
	return e.result(), nil
}
