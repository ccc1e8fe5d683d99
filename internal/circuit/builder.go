package circuit

import (
	"fmt"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// Builder accumulates a compiled circuit while tracking the logical-to-
// physical qubit mapping that SWAP insertion mutates. All builder methods
// take physical qubits and validate them against the coupling graph.
type Builder struct {
	C    *Circuit
	A    *arch.Arch
	L2P  []int // logical -> physical
	P2L  []int // physical -> logical (-1 if no logical qubit resides there)
	init []int // the initial mapping, for Result reporting
}

// NewBuilder returns a builder over architecture a with the given initial
// logical-to-physical mapping. If initial is nil, the identity mapping over
// min(nLogical, a.N()) qubits is used.
func NewBuilder(a *arch.Arch, nLogical int, initial []int) *Builder {
	if nLogical > a.N() {
		panic(fmt.Sprintf("circuit: %d logical qubits exceed %d physical", nLogical, a.N()))
	}
	l2p := make([]int, nLogical)
	if initial == nil {
		for i := range l2p {
			l2p[i] = i
		}
	} else {
		if len(initial) != nLogical {
			panic("circuit: initial mapping length mismatch")
		}
		copy(l2p, initial)
	}
	p2l := make([]int, a.N())
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		if p < 0 || p >= a.N() || p2l[p] != -1 {
			panic(fmt.Sprintf("circuit: invalid initial mapping: logical %d -> physical %d", l, p))
		}
		p2l[p] = l
	}
	ini := make([]int, nLogical)
	copy(ini, l2p)
	return &Builder{C: New(a.N()), A: a, L2P: l2p, P2L: p2l, init: ini}
}

// InitialMapping returns a copy of the builder's starting mapping.
func (b *Builder) InitialMapping() []int {
	out := make([]int, len(b.init))
	copy(out, b.init)
	return out
}

func (b *Builder) checkCoupled(p, q int) {
	if !b.A.G.HasEdge(p, q) {
		panic(fmt.Sprintf("circuit: physical qubits %d,%d not coupled on %s", p, q, b.A.Name))
	}
}

// ZZ appends the program gate for logical edge tag on coupled physical
// qubits p, q.
func (b *Builder) ZZ(p, q int, angle float64, tag graph.Edge) {
	b.checkCoupled(p, q)
	b.C.Append(NewZZ(p, q, angle, tag))
}

// Swap appends a SWAP on coupled physical qubits p, q and updates the
// mapping.
func (b *Builder) Swap(p, q int) {
	b.checkCoupled(p, q)
	b.C.Append(NewSwap(p, q))
	b.swapMapping(p, q)
}

// ZZSwap appends the unified program-gate-plus-SWAP on physical p, q.
func (b *Builder) ZZSwap(p, q int, angle float64, tag graph.Edge) {
	b.checkCoupled(p, q)
	b.C.Append(Gate{Kind: GateZZSwap, Q0: p, Q1: q, Angle: angle, Tag: tag, Tagged: true})
	b.swapMapping(p, q)
}

// Reserve ensures capacity for at least n further gates, so a bulk replay
// or a compile with a known gate count appends without regrowing.
func (b *Builder) Reserve(n int) {
	if cap(b.C.Gates)-len(b.C.Gates) >= n {
		return
	}
	gs := make([]Gate, len(b.C.Gates), len(b.C.Gates)+n)
	copy(gs, b.C.Gates)
	b.C.Gates = gs
}

// ReplayPrefix appends an already-compiled gate sequence in bulk — one
// copy, then one pass folding its SWAPs into the mapping — instead of
// dispatching per-gate builder calls. Unlike ZZ/Swap/ZZSwap it does not
// re-validate couplings or qubit ranges: the prefix must come from a
// compiler result that already passed verification (the hybrid compiler
// replays greedy output here, and core re-verifies the final circuit).
func (b *Builder) ReplayPrefix(gs []Gate) {
	b.Reserve(len(gs))
	b.C.Gates = append(b.C.Gates, gs...)
	for i := range gs {
		switch gs[i].Kind {
		case GateSwap, GateZZSwap:
			b.swapMapping(gs[i].Q0, gs[i].Q1)
		}
	}
}

func (b *Builder) swapMapping(p, q int) {
	lp, lq := b.P2L[p], b.P2L[q]
	b.P2L[p], b.P2L[q] = lq, lp
	if lp >= 0 {
		b.L2P[lp] = q
	}
	if lq >= 0 {
		b.L2P[lq] = p
	}
}

// PhysOf returns the current physical location of logical qubit l.
func (b *Builder) PhysOf(l int) int { return b.L2P[l] }

// CurrentMapping returns a copy of the current logical-to-physical mapping
// — after building, this is the final mapping the compiler claims, which
// the verify pass refolds the circuit's SWAPs to confirm.
func (b *Builder) CurrentMapping() []int {
	out := make([]int, len(b.L2P))
	copy(out, b.L2P)
	return out
}

// LogicalAt returns the logical qubit at physical p, or -1.
func (b *Builder) LogicalAt(p int) int { return b.P2L[p] }

// FinalMapping replays the circuit's SWAPs from the initial mapping and
// returns where each logical qubit ends up — needed to read logical
// measurement outcomes out of the physical basis.
func FinalMapping(c *Circuit, initial []int) []int {
	l2p := append([]int(nil), initial...)
	p2l := make(map[int]int, len(initial))
	for l, p := range l2p {
		p2l[p] = l
	}
	for _, g := range c.Gates {
		if g.Kind == GateSwap || g.Kind == GateZZSwap {
			lu, okU := p2l[g.Q0]
			lv, okV := p2l[g.Q1]
			if okU {
				l2p[lu] = g.Q1
				p2l[g.Q1] = lu
			} else {
				delete(p2l, g.Q1)
			}
			if okV {
				l2p[lv] = g.Q0
				p2l[g.Q0] = lv
			} else {
				delete(p2l, g.Q0)
			}
		}
	}
	return l2p
}
