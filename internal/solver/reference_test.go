package solver

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// This file preserves the pre-optimization A* engine verbatim in behavior:
// string state keys in a map closed set, the O(d) inner-loop heuristic
// recomputed from scratch per node, and the unpruned expansion. It is the
// equivalence oracle for the property tests: every engine must prove the
// same optimal depth on every instance. It is not wired to tracing.

// referenceSolve is the pre-optimization SolveContext body. It honors
// MaxNodes with the same semantics as Solve (0 = 2^22, negative =
// unbounded) and polls ctx every interruptStride expansions.
func referenceSolve(ctx context.Context, a *arch.Arch, problem *graph.Graph, initial []int, opts Options) (*Result, error) {
	clock := obs.ClockOf(opts.Trace)
	t0 := clock.Now()
	edges := problem.Edges()
	if len(edges) == 0 {
		return &Result{}, nil
	}
	start, err := startMapping(a, problem, edges, initial)
	if err != nil {
		return nil, err
	}
	maxNodes := resolveMaxNodes(opts.MaxNodes)

	s := &refSearch{
		a:       a,
		problem: problem,
		edges:   edges,
		edgeIdx: make(map[graph.Edge]int, len(edges)),
		dist:    a.Distances(),
	}
	for i, e := range edges {
		s.edgeIdx[e] = i
	}

	fullMask := uint64(0)
	for i := range edges {
		fullMask |= 1 << uint(i)
	}

	root := &refNode{p2l: start, rem: fullMask, g: 0}
	root.h = s.heuristic(root)
	pq := &refQueue{root}
	best := map[string]int{s.key(root): 0}

	explored, peakOpen := 0, 1
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*refNode)
		if cur.rem == 0 {
			return &Result{
				Depth:     cur.g,
				Cycles:    s.extract(cur),
				Explored:  explored,
				Generated: len(best),
				PeakOpen:  peakOpen,
				Elapsed:   clock.Now().Sub(t0),
			}, nil
		}
		if g, ok := best[s.key(cur)]; ok && cur.g > g {
			continue // stale entry
		}
		explored++
		if explored > maxNodes {
			return nil, fmt.Errorf("%w after %d nodes (open %d, closed %d)",
				ErrSearchExhausted, explored, pq.Len(), len(best))
		}
		if explored%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w after %d nodes: %w", ErrInterrupted, explored, err)
			}
		}
		s.expand(cur, func(child *refNode) {
			k := s.key(child)
			if g, ok := best[k]; ok && g <= child.g {
				return
			}
			best[k] = child.g
			child.h = s.heuristic(child)
			heap.Push(pq, child)
			if pq.Len() > peakOpen {
				peakOpen = pq.Len()
			}
		})
	}
	return nil, errors.New("solver: no terminal reachable (disconnected problem?)")
}

type refNode struct {
	p2l    []int8 // physical -> logical (-1 empty)
	rem    uint64 // bitmask of unscheduled problem edges
	g, h   int
	parent *refNode
	via    Cycle // the cycle applied to parent to reach this node
	idx    int   // heap index
}

type refSearch struct {
	a       *arch.Arch
	problem *graph.Graph
	edges   []graph.Edge
	edgeIdx map[graph.Edge]int
	dist    [][]int
}

func (s *refSearch) key(n *refNode) string {
	buf := make([]byte, len(n.p2l)+8)
	for i, v := range n.p2l {
		buf[i] = byte(v + 1)
	}
	for i := 0; i < 8; i++ {
		buf[len(n.p2l)+i] = byte(n.rem >> (8 * uint(i)))
	}
	return string(buf)
}

// remDegree returns the remaining problem degree of logical qubit l.
func (s *refSearch) remDegree(n *refNode, l int8) int {
	d := 0
	for i, e := range s.edges {
		if n.rem&(1<<uint(i)) != 0 && (int(l) == e.U || int(l) == e.V) {
			d++
		}
	}
	return d
}

// heuristic is h(v) of Definition 4, evaluated with the naive inner loop.
func (s *refSearch) heuristic(n *refNode) int {
	l2p := make([]int, s.problem.N())
	for p, l := range n.p2l {
		if l >= 0 {
			l2p[l] = p
		}
	}
	h := 0
	degCache := make(map[int8]int)
	deg := func(l int8) int {
		if d, ok := degCache[l]; ok {
			return d
		}
		d := s.remDegree(n, l)
		degCache[l] = d
		return d
	}
	for i, e := range s.edges {
		if n.rem&(1<<uint(i)) == 0 {
			continue
		}
		d := s.dist[l2p[e.U]][l2p[e.V]]
		du, dv := deg(int8(e.U)), deg(int8(e.V))
		best := 1 << 30
		for x := 0; x < d; x++ {
			c := du + x
			if o := dv + d - 1 - x; o > c {
				c = o
			}
			if c < best {
				best = c
			}
		}
		if best > h {
			h = best
		}
	}
	return h
}

// expand enumerates all child nodes: every non-empty matching of actions,
// where each coupling edge may host a SWAP or (if its occupants form a
// remaining gate) the gate.
func (s *refSearch) expand(n *refNode, yield func(*refNode)) {
	couplings := s.a.G.Edges()
	// Candidate actions per coupling edge: 1 = swap, plus gate if available.
	type action struct {
		p, q    int
		gate    bool
		edgeBit uint64
		tag     graph.Edge
	}
	var acts []action
	for _, ce := range couplings {
		lu, lv := n.p2l[ce.U], n.p2l[ce.V]
		acts = append(acts, action{p: ce.U, q: ce.V})
		if lu >= 0 && lv >= 0 {
			t := graph.NewEdge(int(lu), int(lv))
			if i, ok := s.edgeIdx[t]; ok && n.rem&(1<<uint(i)) != 0 {
				acts = append(acts, action{p: ce.U, q: ce.V, gate: true, edgeBit: 1 << uint(i), tag: t})
			}
		}
	}
	// Depth-first enumeration of qubit-disjoint subsets.
	used := make([]bool, s.a.N())
	var chosen []action
	var rec func(i int)
	rec = func(i int) {
		if i == len(acts) {
			if len(chosen) == 0 {
				return
			}
			child := &refNode{
				p2l:    append([]int8(nil), n.p2l...),
				rem:    n.rem,
				g:      n.g + 1,
				parent: n,
			}
			cyc := make(Cycle, 0, len(chosen))
			for _, a := range chosen {
				if a.gate {
					child.rem &^= a.edgeBit
					cyc = append(cyc, Op{P: a.p, Q: a.q, Gate: true, Tag: a.tag})
				} else {
					child.p2l[a.p], child.p2l[a.q] = child.p2l[a.q], child.p2l[a.p]
					cyc = append(cyc, Op{P: a.p, Q: a.q})
				}
			}
			child.via = cyc
			yield(child)
			return
		}
		a := acts[i]
		if !used[a.p] && !used[a.q] {
			used[a.p], used[a.q] = true, true
			chosen = append(chosen, a)
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			used[a.p], used[a.q] = false, false
		}
		rec(i + 1)
	}
	rec(0)
}

func (s *refSearch) extract(n *refNode) []Cycle {
	var rev []Cycle
	for cur := n; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.via)
	}
	out := make([]Cycle, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// refQueue is a min-heap on f = g + h (ties broken toward larger g, which
// prefers deeper nodes and speeds up goal discovery).
type refQueue []*refNode

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	fi, fj := q[i].g+q[i].h, q[j].g+q[j].h
	if fi != fj {
		return fi < fj
	}
	return q[i].g > q[j].g
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *refQueue) Push(x any) {
	n := x.(*refNode)
	n.idx = len(*q)
	*q = append(*q, n)
}
func (q *refQueue) Pop() any {
	old := *q
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return n
}
