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
	// sc is the termination scope; when nil, a scope over all line qubits
	// is built internally.
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
// coverage). The pattern stops early when the scope is exhausted.
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
	if sc == nil {
		sc = newScope(st, lines...)
	}
	b := st.scratch()
	for k := 0; k < rounds; k++ {
		if sc.done() {
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
		if opts.extraLayer != nil {
			opts.extraLayer(k)
		}
	}
}
