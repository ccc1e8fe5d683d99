package greedy

import (
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// referenceRefinePlacement is the original rescanning hill-climb, kept as
// the oracle RefinePlacement must reproduce exactly: every trial exchange
// re-sums both endpoints' neighbour distances.
func referenceRefinePlacement(a *arch.Arch, problem *graph.Graph, initial []int, passes int) []int {
	physOf := append([]int(nil), initial...)
	dist := a.Distances()
	adj := make([][]int, problem.N())
	for _, e := range problem.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	costAt := func(u, p int) int {
		c := 0
		for _, v := range adj[u] {
			c += dist[p][physOf[v]]
		}
		return c
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for u := 0; u < problem.N(); u++ {
			for v := u + 1; v < problem.N(); v++ {
				pu, pv := physOf[u], physOf[v]
				before := costAt(u, pu) + costAt(v, pv)
				physOf[u], physOf[v] = pv, pu
				after := costAt(u, pv) + costAt(v, pu)
				if after < before {
					improved = true
				} else {
					physOf[u], physOf[v] = pu, pv
				}
			}
		}
		if !improved {
			break
		}
	}
	return physOf
}
