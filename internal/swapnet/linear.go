package swapnet

import "github.com/ata-pattern/ataqc/internal/graph"

// linearOpts configures the linear (1xUnit) pattern.
type linearOpts struct {
	// rounds overrides the number of rounds (default: longest line length).
	rounds int
	// preserveDynamics forces every round's SWAP layer to execute even in
	// the final round, so the pattern's exact permutation effect (order
	// reversal after m rounds, Fig 6) is preserved. Composite patterns that
	// rely on the reversal for unit exchange (Sycamore) set this.
	preserveDynamics bool
	// sc is the termination scope; when nil, it is the wanted pairs among
	// the line qubits' occupants.
	sc *scope
	// extraLayer, if non-nil, is invoked after each round's step has been
	// emitted, so it can emit additional follow-up steps (heavy-hex
	// path-to-off-path gate layers).
	extraLayer func(round int)
	// unfused emits the program gate and the SWAP of a round as separate
	// layers instead of one unified gate — the paper's solver cost model
	// (§4), used when comparing pattern depth against the optimal solver.
	unfused bool
}

// linear runs the paper's linear pattern (Fig 6/7) over one or more
// disjoint physical lines in lockstep: round k performs, on every pair of
// adjacent line positions with parity k%2, the program gate (if the logical
// pair is wanted) unified with a SWAP. After m rounds (m = longest line)
// every pair of logical qubits sharing a line has been adjacent exactly
// once and each line's occupant order is reversed.
//
// Gates on pairs that are not wanted degrade to plain SWAPs; rounds whose
// compute layer is empty still swap (the dynamics are what guarantee
// coverage). The pattern stops early when the scope is exhausted or the
// sink stops the State. A fused run with no extraLayer on a State with a
// Rounds sink is counted instead of simulated (countLinear).
func linear(st *State, lines [][]int, opts linearOpts, emit EmitFunc) {
	maxLen := 0
	for _, ln := range lines {
		if len(ln) > maxLen {
			maxLen = len(ln)
		}
	}
	if maxLen < 2 {
		return
	}
	rounds := opts.rounds
	if rounds == 0 {
		rounds = maxLen
	}
	sc := opts.sc
	if st.Rounds != nil && opts.extraLayer == nil && !opts.unfused {
		st.countLinear(lines, rounds, opts.preserveDynamics, sc)
		return
	}
	if sc == nil {
		sc = newScope(st, lines...)
	}
	b := st.scratch()
	for k := 0; k < rounds; k++ {
		if st.halted(sc) {
			// Callers with an extraLayer merge its work into sc, so an
			// exhausted scope always means the whole phase is finished.
			return
		}
		compute, swaps := b.gates[0][:0], b.swaps[:0]
		last := k == rounds-1 && !opts.preserveDynamics
		for _, ln := range lines {
			for i := k % 2; i+1 < len(ln); i += 2 {
				p, q := ln[i], ln[i+1]
				if tag, ok := st.WantedPhys(p, q); ok {
					if last {
						// Final round: no dynamics needed afterwards, so
						// emit a bare program gate and skip its SWAP.
						compute = append(compute, st.emitCompute(sc, p, q, tag, false))
						continue
					}
					if opts.unfused {
						compute = append(compute, st.emitCompute(sc, p, q, tag, false))
						st.ApplySwap(p, q)
						swaps = append(swaps, graph.NewEdge(p, q))
						continue
					}
					compute = append(compute, st.emitCompute(sc, p, q, tag, true))
					st.ApplySwap(p, q)
					continue
				}
				if last {
					continue
				}
				st.ApplySwap(p, q)
				swaps = append(swaps, graph.NewEdge(p, q))
			}
		}
		b.gates[0], b.swaps = compute, swaps
		// All pairs of a round share parity, so the plain SWAPs are
		// qubit-disjoint from the unified gate+SWAPs: one cycle total (in
		// the unfused mode the gates genuinely precede the swaps).
		if len(compute) > 0 || len(swaps) > 0 {
			emit(b.step(compute, swaps, !opts.unfused))
		}
		if opts.extraLayer != nil && !st.stopped {
			opts.extraLayer(k)
		}
	}
}

// lineSlot is a logical's place in a counted line run: its line (-1 when
// it is on none) and its virtual slot there when the run starts.
type lineSlot struct{ line, pos int32 }

// countLinear is linear for a noise-free sink that takes counted rounds.
// Every pair of a line meets on a fixed schedule, so a run's cost and its
// end follow from the lines' lengths and their occupants' positions:
//
//   - a round that is not the last (or keeps its dynamics) costs one
//     cycle and 3 CX per pair of its parity, wanted (fused gate+SWAP) or
//     not (plain SWAP); the last bare round costs one cycle and 2 CX per
//     wanted pair meeting in it, and nothing when none does;
//   - the logical at position p of a line of length L rides a cycle of 2L
//     virtual slots, v = p for even p and 2L-1-p for odd p: after k rounds
//     it sits at slot v+k mod 2L, and slot x >= L is position 2L-1-x.
//     Every starting slot is even, so two logicals meet in round k exactly
//     when (v_u+v_v)/2+k = L-1 mod L: first in round
//     (L-1-(v_u+v_v)/2) mod L, then every L rounds;
//   - the scope is exhausted after the latest first meeting of its pairs,
//     and never while it holds a pair that is not wanted, not on one line,
//     or meets only after the last round.
//
// Each round is folded into the sink (or the candidate's pricer) in turn,
// exactly when the simulated run would emit its step, so the sink stops
// st at the same round with the same sums. A stopped run leaves st as it
// was, which is as good as any mid-pattern State for discarding. A run
// that ends uncut applies its permutation and removes the wanted pairs
// that met from the want set and the scope.
func (st *State) countLinear(lines [][]int, rounds int, preserveDynamics bool, sc *scope) {
	if st.stopped {
		return
	}
	b := st.scratch()
	b.startCount(st, lines, false)
	b.among.start(st, lines)
	defer func() {
		b.endCount(st, lines)
		b.among.end()
	}()
	var pairs [2]int // pairs per round parity
	for _, ln := range lines {
		pairs[0] += len(ln) / 2
		pairs[1] += max(len(ln)-1, 0) / 2
	}
	meet := func(e graph.Edge) int { return b.meeting(e, lines, rounds) }
	// live is the latest first meeting among the scope pairs scanned so
	// far; the scan goes only as far as the current round needs.
	live, at, end := -1, 0, rounds
	for k := 0; k < rounds; k++ {
		for live < k {
			m, ok := st.nextMeeting(sc, &at, rounds, meet)
			if !ok {
				break
			}
			live = max(live, m)
		}
		if live < k {
			end = k
			break
		}
		cx := 3 * pairs[k%2]
		if k == rounds-1 && !preserveDynamics {
			cx = 2 * st.meetingIn(lines, k)
		}
		if cx > 0 && st.countRound(cx) {
			return
		}
	}
	st.removeMet(sc, end, meet)
	moved := end
	if end == rounds && !preserveDynamics {
		moved = rounds - 1 // the last round swaps nothing
	}
	for _, ln := range lines {
		st.permuteLine(ln, moved, 0)
	}
}

// nextMeeting returns meet of the scope's next pair, the round it first
// meets in, or never when it is not wanted. Without a caller scope the
// run's scope is the wanted pairs the started walk yields; a caller scope
// is read from bit *at on, and a pair of it that is not wanted is never
// computed, so it never meets.
func (st *State) nextMeeting(sc *scope, at *int, never int, meet func(graph.Edge) int) (int, bool) {
	var e graph.Edge
	var ok bool
	if sc == nil {
		e, ok = st.scr.among.next()
	} else if e, *at, ok = sc.rel.next(*at); ok && !st.Want.Has(e) {
		return never, true
	}
	if !ok {
		return 0, false
	}
	return meet(e), true
}

// removeMet removes the walked pairs whose meet is before round end from
// the want set and from sc.
func (st *State) removeMet(sc *scope, end int, meet func(graph.Edge) int) {
	it := &st.scr.among
	it.rewind()
	for e, ok := it.next(); ok; e, ok = it.next() {
		if meet(e) < end {
			st.Want.Remove(e)
			if sc != nil {
				sc.computed(e)
			}
		}
	}
}

// countRound folds a counted round of cx CX into st's sink, or into its
// candidate's pricer, and reports whether that stopped st.
func (st *State) countRound(cx int) bool {
	if st.cand != nil {
		st.cand.round(cx)
	} else if _, lost := st.Rounds.AddRound(-1, cx); lost {
		st.Stop()
	}
	return st.stopped
}

// startCount records each line occupant's line and starting virtual
// slot. Paired lines are a bipartite phase's rows, the A and then the B
// row of each pair: both rows of a pair take the A row's line, and B's
// slots are odd, as its rotations run one parity ahead of A's (see
// countBipartite).
func (b *scratch) startCount(st *State, lines [][]int, paired bool) {
	if n := max(len(st.L2P), st.Want.n); len(b.slots) < n {
		b.slots = make([]lineSlot, n)
		for i := range b.slots {
			b.slots[i].line = -1
		}
	}
	for li, ln := range lines {
		line, s := li, 0
		if paired {
			line, s = li&^1, li&1
		}
		for i, p := range ln {
			if l := st.P2L[p]; l >= 0 {
				b.slots[l] = lineSlot{line: int32(line), pos: int32(slot(i, len(ln), s))}
			}
		}
	}
}

// endCount takes the line occupants off their slots again.
func (b *scratch) endCount(st *State, lines [][]int) {
	for _, ln := range lines {
		for _, p := range ln {
			if l := st.P2L[p]; l >= 0 {
				b.slots[l].line = -1
			}
		}
	}
}

// meeting returns the round in which the logicals of e first meet, or
// rounds when they do not share a line or meet only after the last round.
func (b *scratch) meeting(e graph.Edge, lines [][]int, rounds int) int {
	su, sv := b.slots[e.U], b.slots[e.V]
	if su.line < 0 || su.line != sv.line {
		return rounds
	}
	n := len(lines[su.line])
	m := n - 1 - int(su.pos+sv.pos)/2
	if m < 0 {
		m += n
	}
	return min(m, rounds)
}

// slot is the starting virtual slot of position p on a line of length n
// whose first round swaps the pairs of parity s: p itself when p has
// parity s, and 2n-1-p otherwise (see countLinear), so every starting
// slot has parity s.
func slot(p, n, s int) int {
	if p%2 == s {
		return p
	}
	return 2*n - 1 - p
}

// origin returns the starting position of the logical at position x of a
// line of length n after k rounds whose first swapped the pairs of
// parity s.
func origin(x, n, k, s int) int {
	v := x // the virtual slot at round k has the parity of k+s
	if (x-k-s)%2 != 0 {
		v = 2*n - 1 - x
	}
	if v = (v - k) % (2 * n); v < 0 {
		v += 2 * n
	}
	if v >= n {
		return 2*n - 1 - v
	}
	return v
}

// meetingIn counts the wanted pairs that meet for the first time in round
// k of a counted run: on a line longer than k, every pair of k's parity.
func (st *State) meetingIn(lines [][]int, k int) int {
	c := 0
	for _, ln := range lines {
		n := len(ln)
		if n <= k {
			continue
		}
		for x := k % 2; x+1 < n; x += 2 {
			if _, ok := st.WantedPhys(ln[origin(x, n, k, 0)], ln[origin(x+1, n, k, 0)]); ok {
				c++
			}
		}
	}
	return c
}

// permuteLine moves line ln's occupants to their positions after k
// swapping rounds, the first of which swapped the pairs of parity s.
func (st *State) permuteLine(ln []int, k, s int) {
	b := st.scr
	occ := b.occ[:0]
	for x := range ln {
		occ = append(occ, st.P2L[ln[origin(x, len(ln), k, s)]])
	}
	for x, l := range occ {
		st.P2L[ln[x]] = l
		if l >= 0 {
			st.L2P[l] = ln[x]
		}
	}
	b.occ = occ
}
