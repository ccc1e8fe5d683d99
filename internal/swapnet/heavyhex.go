package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// maxHeavyHexPasses bounds the number of linear-pattern passes before the
// pattern falls back to explicit routing for straggler pairs. The paper's
// Appendix C argues two passes suffice for the clique; the extra allowance
// absorbs reconstruction slack for skewed regions, and the fallback makes
// the pattern unconditionally complete.
const maxHeavyHexPasses = 4

// heavyHexATA realises all-to-all interaction on a heavy-hex region (§5.1,
// Fig 16). The architecture is compiled through its longest path: the
// 1xUnit linear pattern runs along the path (path-2-path interactions),
// and after every round an extra compute layer lets each off-path bridge
// qubit interact with whatever occupant is currently passing its anchor
// positions (path-2-off-path). A second pass first swaps every off-path
// occupant onto the path — the fresh occupants then stream past everyone
// else, covering off-path-2-off-path and the remaining path-2-off-path
// interactions. Additional passes and, ultimately, explicit routing mop up
// anything a skewed region leaves behind.
func heavyHexATA(st *State, region arch.Region, emit EmitFunc) {
	a := st.A
	i0, i1 := region.I0, region.I1
	if i1 >= len(a.Path) {
		i1 = len(a.Path) - 1
	}
	if i0 < 0 {
		i0 = 0
	}
	if i1-i0+1 < 2 {
		return
	}
	path := a.Path[i0 : i1+1]

	// Off-path qubits whose anchors fall inside the interval.
	type offQ struct {
		q       int
		anchors []int // indices into `path` (region-local)
	}
	var offs []offQ
	for _, op := range a.OffPath {
		var local []int
		for _, gi := range op.PathAnchors {
			if gi >= i0 && gi <= i1 {
				local = append(local, gi-i0)
			}
		}
		if len(local) > 0 {
			offs = append(offs, offQ{q: op.Qubit, anchors: local})
		}
	}

	all := append([]int(nil), path...)
	for _, o := range offs {
		all = append(all, o.q)
	}
	sc := newScope(st, all)

	b := st.scratch()
	// offLayer schedules, after each linear round, the wanted gates between
	// off-path qubits and the occupants currently at their anchors.
	offLayer := func(int) {
		compute := b.gates[1][:0]
		for _, o := range offs {
			if b.busy[o.q] {
				continue
			}
			for _, ai := range o.anchors {
				p := path[ai]
				if b.busy[p] {
					continue
				}
				if tag, ok := st.WantedPhys(o.q, p); ok {
					compute = append(compute, st.emitCompute(sc, o.q, p, tag, false))
					b.busy[o.q], b.busy[p] = true, true
					break
				}
			}
		}
		b.gates[1] = compute
		for _, g := range compute {
			b.busy[g.P], b.busy[g.Q] = false, false
		}
		if len(compute) > 0 {
			emit(Step{Compute: compute})
		}
	}

	for pass := 0; pass < maxHeavyHexPasses && !sc.done(); pass++ {
		if pass > 0 {
			// Promote off-path occupants onto the path in one SWAP layer.
			layer := b.swaps[:0]
			for _, o := range offs {
				for _, ai := range o.anchors {
					p := path[ai]
					if b.busy[p] {
						continue
					}
					st.ApplySwap(o.q, p)
					layer = append(layer, graph.NewEdge(o.q, p))
					b.busy[p] = true
					break
				}
			}
			b.swaps = layer
			for _, e := range layer {
				b.busy[e.U], b.busy[e.V] = false, false
			}
			if len(layer) > 0 {
				emit(b.step(nil, layer, false))
			}
		}
		linear(st, [][]int{path}, linearOpts{
			sc:               sc,
			preserveDynamics: true,
			extraLayer:       offLayer,
		}, emit)
	}

	if !sc.done() {
		routeStragglers(st, sc, all, emit)
	}
}

// routeStragglers explicitly routes every remaining wanted pair inside the
// region: one endpoint walks along a shortest coupling path to the other,
// computes, and the walk's SWAPs are emitted one step at a time. It is the
// completeness net under the structured passes; tests track that cliques
// never reach it.
func routeStragglers(st *State, sc *scope, regionQubits []int, emit EmitFunc) {
	inRegion := make(map[int]bool, len(regionQubits))
	for _, q := range regionQubits {
		inRegion[q] = true
	}
	for {
		// Take the smallest remaining edge: deterministic.
		tag, found := sc.rel.first()
		if !found {
			return
		}
		if !st.Want.Has(tag) {
			sc.computed(tag)
			continue
		}
		pu, pv := st.L2P[tag.U], st.L2P[tag.V]
		// BFS within the region from pu to pv.
		prev := map[int]int{pu: pu}
		queue := []int{pu}
		for len(queue) > 0 {
			if _, ok := prev[pv]; ok {
				break
			}
			v := queue[0]
			queue = queue[1:]
			for _, w := range st.A.G.Neighbors(v) {
				if !inRegion[w] {
					continue
				}
				if _, seen := prev[w]; !seen {
					prev[w] = v
					queue = append(queue, w)
				}
			}
		}
		if _, ok := prev[pv]; !ok {
			// Unroutable inside the region (should not happen: regions are
			// connected path intervals); drop from scope to avoid livelock.
			sc.computed(tag)
			continue
		}
		// Reconstruct path pv -> pu and walk tag.U toward tag.V.
		var walk []int
		for v := pv; v != pu; v = prev[v] {
			walk = append(walk, v)
		}
		walk = append(walk, pu)
		// walk[len-1] = pu ... walk[0] = pv; move occupant of pu forward.
		for i := len(walk) - 1; i >= 2; i-- {
			st.ApplySwap(walk[i], walk[i-1])
			emit(Step{Swaps: [][]graph.Edge{{graph.NewEdge(walk[i], walk[i-1])}}})
		}
		p, q := walk[1], walk[0]
		if t2, ok := st.WantedPhys(p, q); ok {
			emit(Step{Compute: []PhysGate{st.emitCompute(sc, p, q, t2, false)}})
		} else {
			sc.computed(tag)
		}
	}
}
