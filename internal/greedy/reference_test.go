package greedy

import (
	"fmt"
	"math"
	"sort"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// This file preserves the pre-rewrite greedy scheduler verbatim in behavior:
// map-based busy/conflict sets, a fresh conflict graph.Graph per cycle, and
// slice-of-struct gate bookkeeping through circuit.Builder. It is the
// equivalence oracle for the differential suite: the packed engine in
// engine.go must reproduce its output gate for gate. The same discipline
// internal/solver/reference_test.go follows for the A* rewrite.

// pairSet is a bitset over unordered logical-qubit pairs — the remaining
// gate set, consulted in hot loops where hashing 16-byte edge keys costs
// too much.
type pairSet struct {
	n    int
	bits []uint64
}

func newPairSet(n int) *pairSet {
	return &pairSet{n: n, bits: make([]uint64, (n*n+63)/64)}
}

func (s *pairSet) idx(e graph.Edge) int { return e.U*s.n + e.V }

func (s *pairSet) add(e graph.Edge)    { i := s.idx(e); s.bits[i/64] |= 1 << uint(i%64) }
func (s *pairSet) remove(e graph.Edge) { i := s.idx(e); s.bits[i/64] &^= 1 << uint(i%64) }
func (s *pairSet) has(e graph.Edge) bool {
	i := s.idx(e)
	return s.bits[i/64]&(1<<uint(i%64)) != 0
}

// referenceCompile is the pre-rewrite Compile body.
func referenceCompile(a *arch.Arch, problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	if opts.Angle == 0 {
		opts.Angle = 1
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 300*a.N() + 2000
	}
	b := circuit.NewBuilder(a, problem.N(), initial)
	dist := a.Distances()

	remaining := problem.Edges()
	remSet := newPairSet(problem.N())
	for _, e := range remaining {
		remSet.add(e)
		// SWAPs move qubits along coupling edges, so a logical qubit can
		// never leave its connected component: a cross-component gate is
		// unschedulable forever, not merely slow.
		if dist[b.PhysOf(e.U)][b.PhysOf(e.V)] < 0 {
			return nil, fmt.Errorf("%w: interaction %v spans disconnected parts of %s",
				ErrUnreachable, e, a.Name)
		}
	}
	ws := newWorkspace(a)
	var xtalk map[graph.Edge][]graph.Edge
	if opts.CrosstalkAware {
		xtalk = make(map[graph.Edge][]graph.Edge)
		for _, p := range noise.CrosstalkPairs(a) {
			xtalk[p[0]] = append(xtalk[p[0]], p[1])
			xtalk[p[1]] = append(xtalk[p[1]], p[0])
		}
	}

	// Metric handles resolve once up front: with Obs == nil they are nil,
	// and every observation below is a single pointer check.
	met := opts.Obs.Metrics()
	mCycles := met.Counter("greedy.cycles")
	mStalls := met.Counter("greedy.stall_walks")
	mSched := met.Histogram("greedy.scheduled_per_cycle")
	mSwaps := met.Histogram("greedy.swaps_per_cycle")

	cycle := 0
	stall := 0
	stallLimit := a.Diameter() + 8
	for len(remaining) > 0 {
		if cycle >= maxCycles {
			return nil, fmt.Errorf("%w after %d cycles (%d gates left)", ErrNoProgress, cycle, len(remaining))
		}
		cycle++
		mCycles.Add(1)
		if opts.Interrupt != nil {
			if ierr := opts.Interrupt(); ierr != nil {
				return nil, fmt.Errorf("%w at cycle %d: %w", ErrInterrupted, cycle, ierr)
			}
		}

		if stall > stallLimit {
			// The matching dynamics can chase their own tail on rare
			// configurations; deterministically drain the closest gate by
			// walking it home one SWAP per cycle, then resume.
			e := closestGate(b, dist, remaining)
			mStalls.Add(1)
			opts.Obs.Event(opts.ObsSpan, "greedy.stall_walk",
				obs.Int("cycle", cycle),
				obs.Int("remaining", len(remaining)),
				obs.Int("distance", dist[b.PhysOf(e.U)][b.PhysOf(e.V)]))
			for !a.G.HasEdge(b.PhysOf(e.U), b.PhysOf(e.V)) {
				if cycle >= maxCycles {
					return nil, fmt.Errorf("%w after %d cycles (stall walk)", ErrNoProgress, cycle)
				}
				if opts.Interrupt != nil {
					if ierr := opts.Interrupt(); ierr != nil {
						return nil, fmt.Errorf("%w at cycle %d: %w", ErrInterrupted, cycle, ierr)
					}
				}
				s := forcedSwap(a, b, dist, e, opts.Noise)
				b.Swap(s.U, s.V)
				cycle++
			}
			b.ZZ(b.PhysOf(e.U), b.PhysOf(e.V), opts.Angle, e)
			remSet.remove(e)
			keep := remaining[:0]
			for _, f := range remaining {
				if f != e {
					keep = append(keep, f)
				}
			}
			remaining = keep
			stall = 0
			if opts.Checkpoint != nil {
				l2p := make([]int, problem.N())
				for l := range l2p {
					l2p[l] = b.PhysOf(l)
				}
				opts.Checkpoint(len(b.C.Gates), l2p, cycle)
			}
			continue
		}

		// --- Gate scheduling (graph colouring on the conflict graph). ---
		var exec []graph.Edge
		for _, e := range remaining {
			if ws.coupled(b.PhysOf(e.U), b.PhysOf(e.V)) {
				exec = append(exec, e)
			}
		}
		scheduled := scheduleGates(a, b, exec, xtalk)
		busy := make(map[int]bool, 2*len(scheduled))
		schedSet := make(map[graph.Edge]bool, len(scheduled))
		for _, e := range scheduled {
			busy[b.PhysOf(e.U)] = true
			busy[b.PhysOf(e.V)] = true
			schedSet[e] = true
		}
		// Complete the colour class to a maximal conflict-free set: the
		// largest class can leave schedulable gates idle.
		for _, e := range exec {
			if schedSet[e] {
				continue
			}
			pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
			if busy[pu] || busy[pv] {
				continue
			}
			if xtalk != nil && xtalkConflict(b, xtalk, e, schedSet) {
				continue
			}
			scheduled = append(scheduled, e)
			schedSet[e] = true
			busy[pu], busy[pv] = true, true
		}
		schedPending := remaining[:0]
		for _, e := range remaining {
			if !schedSet[e] {
				schedPending = append(schedPending, e)
			} else {
				remSet.remove(e)
			}
		}
		remaining = schedPending
		mSched.Observe(int64(len(scheduled)))
		// Emit scheduled gates, unifying a gate with its SWAP when moving
		// the pair brings other remaining gates closer (free routing — the
		// trick the structured patterns and 2QAN both exploit).
		mapped := false
		for _, e := range scheduled {
			pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
			if len(remaining) > 0 && swapGain(b, problem, remSet, dist, e, pu, pv) > 0 {
				b.ZZSwap(pu, pv, opts.Angle, e)
				mapped = true
			} else {
				b.ZZ(pu, pv, opts.Angle, e)
			}
		}
		if len(remaining) == 0 {
			break
		}

		// --- SWAP insertion (weighted matching on idle qubits). ---
		swaps := ws.proposeSwaps(a, b, dist, remaining, busy, opts.Noise)
		swapCount := len(swaps)
		touched := ws.touched
		for i := range touched {
			touched[i] = false
		}
		//vet:ignore maprange idempotent flag writes, order-independent
		for q := range busy {
			touched[q] = true
		}
		for _, s := range swaps {
			b.Swap(s.U, s.V)
			touched[s.U], touched[s.V] = true, true
			mapped = true
		}
		// Escort walks: the signed-benefit matching alone under-moves when
		// overlapping gates' contributions cancel (throughput collapses to
		// a few swaps per cycle on dense problems). Every remaining gate
		// whose qubits are still untouched takes one forced
		// distance-reducing step, closest gates first — the closest gate's
		// qubits get locked before farther escorts can drag them away, so
		// the minimum distance decreases monotonically and the schedule
		// keeps near-maximal swap parallelism.
		ordered := ws.byDistance(b, dist, remaining)
		dmin := 0
		if len(ordered) > 0 {
			dmin = dist[b.PhysOf(ordered[0].U)][b.PhysOf(ordered[0].V)]
		}
		for _, e := range ordered {
			pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
			if touched[pu] || touched[pv] {
				continue
			}
			d := dist[pu][pv]
			if d <= 1 {
				// About to execute: protect it from farther gates' escorts.
				touched[pu], touched[pv] = true, true
				continue
			}
			if d > dmin+ws.escortWindow {
				// Far gates wait: escorting everything burns ~3x the SWAPs
				// for no depth gain, because distant partners drift anyway
				// as the frontier churns.
				break
			}
			s := forcedSwap(a, b, dist, e, opts.Noise)
			if touched[s.U] || touched[s.V] {
				continue
			}
			b.Swap(s.U, s.V)
			touched[s.U], touched[s.V] = true, true
			touched[pu], touched[pv] = true, true
			mapped = true
			swapCount++
		}
		mSwaps.Observe(int64(swapCount))
		if len(scheduled) > 0 {
			stall = 0
		} else {
			stall++
		}
		if mapped && opts.Checkpoint != nil {
			l2p := make([]int, problem.N())
			for l := range l2p {
				l2p[l] = b.PhysOf(l)
			}
			opts.Checkpoint(len(b.C.Gates), l2p, cycle)
		}
	}
	return &Result{Circuit: b.C, Initial: b.InitialMapping(), Final: b.CurrentMapping(), Cycles: cycle}, nil
}

// swapGain returns the total coupling-distance reduction over remaining
// gates incident to the occupants of (pu, pv) if those occupants were
// exchanged after executing gate e.
func swapGain(b *circuit.Builder, problem *graph.Graph, remSet *pairSet, dist [][]int, e graph.Edge, pu, pv int) int {
	gain := 0
	acc := func(l, from, to int) {
		for _, w := range problem.Neighbors(l) {
			if !remSet.has(graph.NewEdge(l, w)) {
				continue
			}
			pw := b.PhysOf(w)
			if pw == pu || pw == pv {
				continue
			}
			gain += dist[from][pw] - dist[to][pw]
		}
	}
	acc(e.U, pu, pv)
	acc(e.V, pv, pu)
	return gain
}

// xtalkConflict reports whether gate e's coupling crosstalks with any
// already-scheduled gate's coupling.
func xtalkConflict(b *circuit.Builder, xtalk map[graph.Edge][]graph.Edge, e graph.Edge, schedSet map[graph.Edge]bool) bool {
	ce := graph.NewEdge(b.PhysOf(e.U), b.PhysOf(e.V))
	for _, partner := range xtalk[ce] {
		lu, lv := b.LogicalAt(partner.U), b.LogicalAt(partner.V)
		if lu < 0 || lv < 0 {
			continue
		}
		if schedSet[graph.NewEdge(lu, lv)] {
			return true
		}
	}
	return false
}

// scheduleGates picks the subset of executable gates to run this cycle: it
// colours the conflict graph (shared qubits + crosstalk) greedily and takes
// the largest colour class (§6.2).
func scheduleGates(a *arch.Arch, b *circuit.Builder, exec []graph.Edge, xtalk map[graph.Edge][]graph.Edge) []graph.Edge {
	if len(exec) == 0 {
		return nil
	}
	conflict := graph.New(len(exec))
	byQubit := make(map[int][]int)
	byCoupling := make(map[graph.Edge]int, len(exec))
	for i, e := range exec {
		pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
		for _, q := range [2]int{pu, pv} {
			for _, j := range byQubit[q] {
				conflict.AddEdge(i, j)
			}
			byQubit[q] = append(byQubit[q], i)
		}
		byCoupling[graph.NewEdge(pu, pv)] = i
	}
	if xtalk != nil {
		for i, e := range exec {
			ce := graph.NewEdge(b.PhysOf(e.U), b.PhysOf(e.V))
			for _, partner := range xtalk[ce] {
				if j, ok := byCoupling[partner]; ok && j != i {
					conflict.AddEdge(i, j)
				}
			}
		}
	}
	colors := graph.GreedyColoring(conflict)
	best := graph.LargestColorClass(colors)
	out := make([]graph.Edge, 0, len(best))
	for _, i := range best {
		out = append(out, exec[i])
	}
	return out
}

// workspace holds per-compilation scratch buffers and index structures so
// the per-cycle hot paths avoid hashing 16-byte edge keys and re-sorting.
type workspace struct {
	couplings []graph.Edge // coupling edge by id
	adj       []bool       // dense coupling matrix, row-major over physical qubits
	nQubits   int
	nbrEdgeID [][]int // parallel to a.G.Neighbors(p): coupling edge id
	// escortWindow bounds how far beyond the current minimum gate distance
	// the escort walks reach. Too small starves movement on large devices
	// (depth blows up); too large burns speculative SWAPs on small ones.
	// diameter/8 floored at 2 tracks both regimes.
	escortWindow int
	benefit      []float64 // per coupling id, signed accumulation
	dirty        []int     // coupling ids touched this cycle
	seenGen      []int     // generation marker per coupling id
	gen          int
	touched      []bool // per physical qubit
	buckets      [][]graph.Edge
}

func newWorkspace(a *arch.Arch) *workspace {
	couplings := a.G.Edges()
	id := make(map[graph.Edge]int, len(couplings))
	for i, e := range couplings {
		id[e] = i
	}
	nbr := make([][]int, a.N())
	for p := 0; p < a.N(); p++ {
		ns := a.G.Neighbors(p)
		nbr[p] = make([]int, len(ns))
		for k, w := range ns {
			nbr[p][k] = id[graph.NewEdge(p, w)]
		}
	}
	adj := make([]bool, a.N()*a.N())
	for _, e := range couplings {
		adj[e.U*a.N()+e.V] = true
		adj[e.V*a.N()+e.U] = true
	}
	win := a.Diameter() / 8
	if win < 2 {
		win = 2
	}
	return &workspace{
		couplings:    couplings,
		adj:          adj,
		nQubits:      a.N(),
		nbrEdgeID:    nbr,
		escortWindow: win,
		benefit:      make([]float64, len(couplings)),
		seenGen:      make([]int, len(couplings)),
		touched:      make([]bool, a.N()),
		buckets:      make([][]graph.Edge, a.Diameter()+2),
	}
}

// coupled reports physical adjacency via the dense matrix (hot path).
func (ws *workspace) coupled(p, q int) bool { return ws.adj[p*ws.nQubits+q] }

// byDistance orders the gates by current coupling distance with a counting
// sort (reused buckets; ties keep input order, which is deterministic).
func (ws *workspace) byDistance(b *circuit.Builder, dist [][]int, remaining []graph.Edge) []graph.Edge {
	for i := range ws.buckets {
		ws.buckets[i] = ws.buckets[i][:0]
	}
	for _, e := range remaining {
		d := dist[b.PhysOf(e.U)][b.PhysOf(e.V)]
		if d >= len(ws.buckets) {
			d = len(ws.buckets) - 1
		}
		ws.buckets[d] = append(ws.buckets[d], e)
	}
	out := remaining[:0]
	for _, bk := range ws.buckets {
		out = append(out, bk...)
	}
	return out
}

// proposeSwaps gathers candidate SWAPs that reduce the distance of some
// unexecutable gate, weights them by aggregated benefit and link quality,
// and returns a vertex-disjoint selection.
func (ws *workspace) proposeSwaps(a *arch.Arch, b *circuit.Builder, dist [][]int, remaining []graph.Edge, busy map[int]bool, nm *noise.Model) []graph.Edge {
	// Signed benefit per candidate SWAP: every remaining gate with an
	// endpoint on the swapped pair contributes its distance change, so a
	// SWAP that helps one gate while tearing another apart nets out — the
	// positive-only variant oscillates forever on shared qubits.
	for _, id := range ws.dirty {
		ws.benefit[id] = 0
	}
	ws.dirty = ws.dirty[:0]
	ws.gen++
	consider := func(p, k, w, gain int) {
		if busy[p] || busy[w] {
			return
		}
		id := ws.nbrEdgeID[p][k]
		if ws.seenGen[id] != ws.gen {
			ws.seenGen[id] = ws.gen
			ws.dirty = append(ws.dirty, id)
		}
		ws.benefit[id] += float64(gain)
	}
	for _, e := range remaining {
		pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
		d := dist[pu][pv]
		// A SWAP moving an endpoint to neighbour w gains d - dist(w, other):
		// +1 along a shortest path, negative when it strays (including
		// pulling apart an already-adjacent gate).
		//
		// At d == 2 only one endpoint may move: if both endpoints step
		// toward each other's old position via different midpoints they
		// stay at distance 2 forever (the simultaneous-move livelock).
		moveU, moveV := true, true
		if d == 2 {
			if busy[pu] {
				moveU = false
			} else {
				moveV = false
			}
		}
		if moveU {
			for k, w := range a.G.Neighbors(pu) {
				if w != pv {
					consider(pu, k, w, d-dist[w][pv])
				}
			}
		}
		if moveV {
			for k, w := range a.G.Neighbors(pv) {
				if w != pu {
					consider(pv, k, w, d-dist[w][pu])
				}
			}
		}
	}
	var veto float64 = math.Inf(1)
	if nm != nil {
		veto = vetoThreshold(nm)
	}
	wedges := make([]graph.WeightedEdge, 0, len(ws.dirty))
	for _, id := range ws.dirty {
		benefit := ws.benefit[id]
		ce := ws.couplings[id]
		w := benefit
		if nm != nil {
			e := nm.EdgeError(ce.U, ce.V)
			if e >= veto {
				// Outlier link: refuse to route through it; the stall
				// fallback still uses it if it is the only way forward.
				continue
			}
			// A SWAP is three CX on this link: discount bad links so gates
			// drift toward reliable couplings (§5.3).
			q := 1 - e
			w *= q * q * q
		}
		if w > 0 {
			wedges = append(wedges, graph.WeightedEdge{Edge: ce, W: w})
		}
	}
	sort.Slice(wedges, func(i, j int) bool {
		if wedges[i].W != wedges[j].W {
			return wedges[i].W > wedges[j].W
		}
		if wedges[i].U != wedges[j].U {
			return wedges[i].U < wedges[j].U
		}
		return wedges[i].V < wedges[j].V
	})
	idx := graph.MaxWeightMatching(wedges)
	out := make([]graph.Edge, 0, len(idx))
	for _, i := range idx {
		out = append(out, wedges[i].Edge)
	}
	return out
}

func closestGate(b *circuit.Builder, dist [][]int, remaining []graph.Edge) graph.Edge {
	best, bd := remaining[0], math.MaxInt
	for _, e := range remaining {
		if d := dist[b.PhysOf(e.U)][b.PhysOf(e.V)]; d < bd {
			best, bd = e, d
		}
	}
	return best
}

// forcedSwap returns a distance-reducing swap for gate e, preferring the
// lowest-error link among the reducing options at either endpoint.
func forcedSwap(a *arch.Arch, b *circuit.Builder, dist [][]int, e graph.Edge, nm *noise.Model) graph.Edge {
	pu, pv := b.PhysOf(e.U), b.PhysOf(e.V)
	d := dist[pu][pv]
	var best graph.Edge
	bestErr := math.Inf(1)
	found := false
	consider := func(p, w, other int) {
		if dist[w][other] >= d {
			return
		}
		err := 0.0
		if nm != nil {
			err = nm.EdgeError(p, w)
		}
		if !found || err < bestErr {
			best, bestErr, found = graph.NewEdge(p, w), err, true
		}
	}
	for _, w := range a.G.Neighbors(pu) {
		consider(pu, w, pv)
	}
	for _, w := range a.G.Neighbors(pv) {
		consider(pv, w, pu)
	}
	if found {
		return best
	}
	// Unreachable on connected architectures; move anywhere as last resort.
	return graph.NewEdge(pu, a.G.Neighbors(pu)[0])
}
