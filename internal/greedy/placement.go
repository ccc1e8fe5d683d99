package greedy

import (
	"sort"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// InitialMapping places the problem's logical qubits compactly on the
// architecture: logical qubits in BFS order from the highest-degree vertex
// (densest first) onto physical qubits in BFS order from an architecture
// centre. Compact placement keeps the detected interaction region small,
// which tightens the ATA prediction bound (§6.3); for the clique special
// case all placements are equivalent (§4, Discussion).
func InitialMapping(a *arch.Arch, problem *graph.Graph) []int {
	phys := bfsOrder(a.G, archCenter(a))
	logical := problemOrder(problem)
	mapping := make([]int, problem.N())
	for i, l := range logical {
		mapping[l] = phys[i]
	}
	return mapping
}

// RefinePlacement hill-climbs a placement for a bounded number of passes:
// it tries exchanging the physical locations of every logical pair u < v,
// in ascending order, and keeps an exchange when it strictly reduces the
// total coupling distance over all problem edges. Structured sparse graphs
// (chains, lattices) benefit enormously — the BFS seed gets them near the
// right region and the refinement aligns them with the hardware.
//
// Cost model: a transient table holds, for every logical qubit u and
// physical qubit p, the summed distance from u's neighbours to p with
// every other qubit where it is now. A trial exchange reads four entries,
// so it is O(1). An accepted exchange shifts each moved qubit's neighbours'
// rows by one contiguous distance-row difference, O(deg·N) on an N-qubit
// device. A pass is still O(n²) trials, so callers bound the passes. The
// table costs n·N·4 bytes of scratch per call. It reads distances
// row-for-column, which relies on a.Distances() being symmetric; BFS over
// an undirected coupling graph guarantees that.
func RefinePlacement(a *arch.Arch, problem *graph.Graph, initial []int, passes int) []int {
	physOf := append([]int(nil), initial...)
	n, nPhys := problem.N(), a.N()
	if passes <= 0 || n < 2 {
		return physOf
	}
	dist := a.Distances()
	// row[u*nPhys+p] = Σ over u's neighbours w of dist[physOf[w]][p].
	row := make([]int32, n*nPhys)
	// gain/loss: the row shift of an accepted exchange, and its negation.
	gain, loss := make([]int32, nPhys), make([]int32, nPhys)
	for u := 0; u < n; u++ {
		ru := row[u*nPhys : (u+1)*nPhys]
		for _, w := range problem.Neighbors(u) {
			for p, d := range dist[physOf[w]] {
				ru[p] += int32(d)
			}
		}
	}
	// adjU[w] == u+1 marks w as a neighbour of the u being scanned.
	adjU := make([]int32, n)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for u := 0; u < n; u++ {
			for _, w := range problem.Neighbors(u) {
				adjU[w] = int32(u + 1)
			}
			ru := row[u*nPhys : (u+1)*nPhys]
			for v := u + 1; v < n; v++ {
				pu, pv := physOf[u], physOf[v]
				rv := row[v*nPhys : (v+1)*nPhys]
				before := ru[pu] + rv[pv]
				after := ru[pv] + rv[pu]
				if adjU[v] == int32(u+1) {
					// The rows price u~v with the partner still in place
					// (distance 0); after the exchange the edge spans pu–pv
					// and both endpoints count it.
					after += 2 * int32(dist[pu][pv])
				}
				if after >= before {
					continue
				}
				physOf[u], physOf[v] = pv, pu
				improved = true
				// u moved pu→pv and v moved pv→pu: u's neighbours' rows
				// gain dist[pv][·] − dist[pu][·] and v's lose it.
				dpu, dpv := dist[pu][:nPhys], dist[pv][:nPhys]
				for p := range gain {
					gain[p] = int32(dpv[p] - dpu[p])
					loss[p] = -gain[p]
				}
				for _, w := range problem.Neighbors(u) {
					addRow(row[w*nPhys:(w+1)*nPhys], gain)
				}
				for _, w := range problem.Neighbors(v) {
					addRow(row[w*nPhys:(w+1)*nPhys], loss)
				}
			}
		}
		if !improved {
			break
		}
	}
	return physOf
}

// addRow adds d to r element-wise. Accepted exchanges spend nearly all
// of the refinement's time here, so the loop is unrolled eight-wide.
func addRow(r, d []int32) {
	d = d[:len(r)]
	for len(r) >= 8 {
		r8, d8 := r[:8:8], d[:8:8]
		r8[0] += d8[0]
		r8[1] += d8[1]
		r8[2] += d8[2]
		r8[3] += d8[3]
		r8[4] += d8[4]
		r8[5] += d8[5]
		r8[6] += d8[6]
		r8[7] += d8[7]
		r, d = r[8:], d[8:]
	}
	for p := range r {
		r[p] += d[p]
	}
}

// archCenter returns a vertex with minimal eccentricity estimate (two-BFS
// sweep: the midpoint of a longest shortest path found from an arbitrary
// start).
func archCenter(a *arch.Arch) int {
	far := func(s int) (int, []int) {
		d := a.G.BFSFrom(s)
		best, bd := s, 0
		for v, dv := range d {
			if dv > bd {
				best, bd = v, dv
			}
		}
		return best, d
	}
	u, _ := far(0)
	v, du := far(u)
	dv := a.G.BFSFrom(v)
	// Centre: vertex minimising max(dist(u,·), dist(v,·)).
	best, bd := 0, 1<<30
	for w := 0; w < a.N(); w++ {
		m := du[w]
		if dv[w] > m {
			m = dv[w]
		}
		if m < bd {
			best, bd = w, m
		}
	}
	return best
}

// bfsOrder returns all vertices in BFS order from start, visiting neighbours
// in ascending index for determinism; unreached vertices are appended.
func bfsOrder(g *graph.Graph, start int) []int {
	order := make([]int, 0, g.N())
	seen := make([]bool, g.N())
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nb := append([]int(nil), g.Neighbors(v)...)
		sort.Ints(nb)
		for _, w := range nb {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// problemOrder returns the logical qubits in BFS order from the
// highest-degree vertex, breaking ties toward higher degree so dense cores
// land near the architecture centre.
func problemOrder(p *graph.Graph) []int {
	start := 0
	for v := 1; v < p.N(); v++ {
		if p.Degree(v) > p.Degree(start) {
			start = v
		}
	}
	order := make([]int, 0, p.N())
	seen := make([]bool, p.N())
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nb := append([]int(nil), p.Neighbors(v)...)
		sort.Slice(nb, func(i, j int) bool {
			if p.Degree(nb[i]) != p.Degree(nb[j]) {
				return p.Degree(nb[i]) > p.Degree(nb[j])
			}
			return nb[i] < nb[j]
		})
		for _, w := range nb {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for v := 0; v < p.N(); v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}
