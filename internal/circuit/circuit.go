// Package circuit provides the compiled-circuit intermediate representation:
// gates over physical qubits, ASAP layering and depth, decomposition into
// the CX + single-qubit basis (the paper's metrics, §7.1), and a builder
// that tracks the logical-to-physical mapping while SWAPs are inserted.
package circuit

import (
	"fmt"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// Kind enumerates the gate set. ZZ is the permutable two-qubit program
// operator (the QAOA CPHASE / 2-local interaction, Fig 2d); ZZSwap is the
// unified ZZ-then-SWAP gate (2QAN-style "gate unifying": 3 CX instead of 5,
// available when a pattern computes on a pair and immediately swaps it).
type Kind int

const (
	GateH Kind = iota
	GateRX
	GateRZ
	GateZZ
	GateCNOT
	GateSwap
	GateZZSwap
)

func (k Kind) String() string {
	switch k {
	case GateH:
		return "h"
	case GateRX:
		return "rx"
	case GateRZ:
		return "rz"
	case GateZZ:
		return "zz"
	case GateCNOT:
		return "cx"
	case GateSwap:
		return "swap"
	case GateZZSwap:
		return "zzswap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TwoQubit reports whether the kind acts on two qubits.
func (k Kind) TwoQubit() bool {
	switch k {
	case GateZZ, GateCNOT, GateSwap, GateZZSwap:
		return true
	}
	return false
}

// CXCost returns the number of CX gates the kind decomposes into.
func (k Kind) CXCost() int {
	switch k {
	case GateZZ:
		return 2
	case GateCNOT:
		return 1
	case GateSwap, GateZZSwap:
		return 3
	}
	return 0
}

// Gate is one operation on physical qubits. Q1 is -1 for one-qubit gates.
// Tag records the logical problem-graph edge a ZZ/ZZSwap implements, so
// validation can check that every program gate was scheduled exactly once.
type Gate struct {
	Kind   Kind
	Q0, Q1 int
	Angle  float64
	Tag    graph.Edge
	Tagged bool
}

// NewZZ returns a tagged two-qubit program gate on physical qubits p, q.
func NewZZ(p, q int, angle float64, tag graph.Edge) Gate {
	return Gate{Kind: GateZZ, Q0: p, Q1: q, Angle: angle, Tag: tag, Tagged: true}
}

// NewSwap returns a SWAP on physical qubits p, q.
func NewSwap(p, q int) Gate { return Gate{Kind: GateSwap, Q0: p, Q1: q} }

// Circuit is an ordered gate list over NQubits physical qubits.
type Circuit struct {
	NQubits int
	Gates   []Gate
}

// New returns an empty circuit on n physical qubits.
func New(n int) *Circuit { return &Circuit{NQubits: n} }

// Append adds gates, validating qubit indices.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		c.check(g)
		c.Gates = append(c.Gates, g)
	}
}

// check panics unless g's qubits lie in range and a two-qubit gate's
// operands are distinct — the contract Append enforces.
func (c *Circuit) check(g Gate) {
	if g.Q0 < 0 || g.Q0 >= c.NQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range", g.Q0))
	}
	if g.Kind.TwoQubit() {
		if g.Q1 < 0 || g.Q1 >= c.NQubits || g.Q1 == g.Q0 {
			panic(fmt.Sprintf("circuit: invalid 2q gate %v on (%d,%d)", g.Kind, g.Q0, g.Q1))
		}
	}
}

// Depth returns the ASAP critical-path length with every gate (1q and 2q)
// costing one cycle.
func (c *Circuit) Depth() int {
	avail := make([]int, c.NQubits)
	depth := 0
	for _, g := range c.Gates {
		t := avail[g.Q0]
		if g.Kind.TwoQubit() && avail[g.Q1] > t {
			t = avail[g.Q1]
		}
		t++
		avail[g.Q0] = t
		if g.Kind.TwoQubit() {
			avail[g.Q1] = t
		}
		if t > depth {
			depth = t
		}
	}
	return depth
}

// Layers groups the gates into ASAP layers: gate i is placed in the first
// layer after every earlier gate sharing one of its qubits. The returned
// slices index into c.Gates.
func (c *Circuit) Layers() [][]int {
	avail := make([]int, c.NQubits)
	var layers [][]int
	for i, g := range c.Gates {
		t := avail[g.Q0]
		if g.Kind.TwoQubit() && avail[g.Q1] > t {
			t = avail[g.Q1]
		}
		if t == len(layers) {
			layers = append(layers, nil)
		}
		layers[t] = append(layers[t], i)
		avail[g.Q0] = t + 1
		if g.Kind.TwoQubit() {
			avail[g.Q1] = t + 1
		}
	}
	return layers
}

// TwoQubitDepth returns the critical-path length counting only two-qubit
// gates (each one cycle); single-qubit gates are free. This matches how the
// paper's solver counts cycles (all 2q gates take 1 cycle, §4.2).
func (c *Circuit) TwoQubitDepth() int {
	avail := make([]int, c.NQubits)
	depth := 0
	for _, g := range c.Gates {
		if !g.Kind.TwoQubit() {
			continue
		}
		t := avail[g.Q0]
		if avail[g.Q1] > t {
			t = avail[g.Q1]
		}
		t++
		avail[g.Q0] = t
		avail[g.Q1] = t
		if t > depth {
			depth = t
		}
	}
	return depth
}

// CXCount returns the total CX count after decomposition (§7.1: "the number
// of CX gates in the compiled circuit including the original circuit gates
// and those decomposed from the added SWAP gates").
func (c *Circuit) CXCount() int {
	n := 0
	for _, g := range c.Gates {
		n += g.Kind.CXCost()
	}
	return n
}

// GateCount returns the number of gates of each kind.
func (c *Circuit) GateCount() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.Gates {
		m[g.Kind]++
	}
	return m
}

// Expand returns g in the CX + {H, RX, RZ} basis, written into the
// caller-owned buf (the result aliases it, so it is valid until the next
// Expand into the same buffer). It is the one home of the decomposition
// templates:
//
//   - ZZ(θ) on (a,b) → CX(a,b) · RZ(θ) on b · CX(a,b), the Fig 2d template.
//   - SWAP on (a,b) → CX(a,b) · CX(b,a) · CX(a,b).
//   - ZZSwap(θ) on (a,b) → CX(a,b) · RZ(θ) on b · CX(b,a) · CX(a,b): the
//     middle rotation commutes through to merge with the SWAP's ladder, so
//     the pair costs 3 CX — the gate-unifying trick the paper credits to
//     2QAN and that the structured patterns get for free (a gate layer
//     immediately followed by a SWAP layer on the same pairs, Fig 6).
//   - Every other gate is already in the basis and is returned as is.
//
// Expand does not validate qubit indices; the Circuit methods that stream
// through it reject out-of-range gates the way Append does.
func (g Gate) Expand(buf *[4]Gate) []Gate {
	a, b := g.Q0, g.Q1
	switch g.Kind {
	case GateZZ:
		buf[0] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		buf[1] = Gate{Kind: GateRZ, Q0: b, Q1: -1, Angle: g.Angle}
		buf[2] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		return buf[:3]
	case GateSwap:
		buf[0] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		buf[1] = Gate{Kind: GateCNOT, Q0: b, Q1: a}
		buf[2] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		return buf[:3]
	case GateZZSwap:
		buf[0] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		buf[1] = Gate{Kind: GateRZ, Q0: b, Q1: -1, Angle: g.Angle}
		buf[2] = Gate{Kind: GateCNOT, Q0: b, Q1: a}
		buf[3] = Gate{Kind: GateCNOT, Q0: a, Q1: b}
		return buf[:4]
	default:
		buf[0] = g
		return buf[:1]
	}
}

// Decomposed calls yield with every gate of the circuit's CX-basis
// expansion (see Expand), in order, without materialising it, and stops
// early when yield returns false. A gate that Append would reject panics
// with Append's message before it reaches yield.
func (c *Circuit) Decomposed(yield func(Gate) bool) {
	var buf [4]Gate
	for _, g := range c.Gates {
		for _, e := range g.Expand(&buf) {
			c.check(e)
			if !yield(e) {
				return
			}
		}
	}
}

// Decompose returns the circuit expanded into the CX + {H, RX, RZ} basis
// as a new circuit (see Expand for the templates). Metrics, verification
// and QASM output stream the expansion through Decomposed instead; this
// materialised form is for consumers that replay the circuit many times,
// such as the simulators.
func (c *Circuit) Decompose() *Circuit {
	var buf [4]Gate
	size := 0
	for _, g := range c.Gates {
		size += len(g.Expand(&buf))
	}
	out := &Circuit{NQubits: c.NQubits, Gates: make([]Gate, 0, size)}
	c.Decomposed(func(g Gate) bool {
		out.Gates = append(out.Gates, g)
		return true
	})
	return out
}

// DecomposedDepth returns Depth() after decomposition into CX + 1q gates —
// the paper's reported circuit-depth metric — streaming the expansion.
func (c *Circuit) DecomposedDepth() int {
	avail := make([]int, c.NQubits)
	depth := 0
	c.Decomposed(func(g Gate) bool {
		t := avail[g.Q0]
		if g.Kind.TwoQubit() && avail[g.Q1] > t {
			t = avail[g.Q1]
		}
		t++
		avail[g.Q0] = t
		if g.Kind.TwoQubit() {
			avail[g.Q1] = t
		}
		depth = max(depth, t)
		return true
	})
	return depth
}

// Summary is a circuit's metrics gathered in one pass by Summarize.
type Summary struct {
	// Depth equals DecomposedDepth; TwoQubitDepth and CXCount equal the
	// methods of the same names.
	Depth, TwoQubitDepth, CXCount int
	// Counts[k] is the number of gates of kind k (GateCount as an array;
	// gates of unknown kinds are not counted).
	Counts [GateZZSwap + 1]int
}

// Summarize computes DecomposedDepth, TwoQubitDepth, CXCount and the gate
// counts in one pass over the gates, expanding each into a stack buffer
// (see Expand) instead of streaming through a callback. A gate that Append
// would reject panics with the message DecomposedDepth gives it.
func (c *Circuit) Summarize() Summary {
	var s Summary
	var buf [4]Gate
	avail := make([]int, 2*c.NQubits)
	avail, avail2 := avail[:c.NQubits], avail[c.NQubits:]
	for _, g := range c.Gates {
		if g.Kind >= 0 && g.Kind <= GateZZSwap {
			s.Counts[g.Kind]++
		}
		for _, e := range g.Expand(&buf) {
			c.check(e)
			t := avail[e.Q0]
			if e.Kind.TwoQubit() {
				t = max(t, avail[e.Q1])
				avail[e.Q1] = t + 1
			}
			avail[e.Q0] = t + 1
			s.Depth = max(s.Depth, t+1)
		}
		if g.Kind.TwoQubit() {
			t := max(avail2[g.Q0], avail2[g.Q1]) + 1
			avail2[g.Q0], avail2[g.Q1] = t, t
			s.TwoQubitDepth = max(s.TwoQubitDepth, t)
			s.CXCount += g.Kind.CXCost()
		}
	}
	return s
}

// Compact relabels the circuit onto the dense qubit set it actually
// touches, returning the remapped circuit and the old-to-new index map.
// Untouched qubits carry no amplitude information, so simulating the
// compacted circuit is exact — this is what lets a 27-qubit device circuit
// with 10 active qubits fit in a 10-qubit statevector.
func (c *Circuit) Compact() (*Circuit, map[int]int) {
	remap := make(map[int]int)
	touch := func(q int) {
		if _, ok := remap[q]; !ok {
			remap[q] = len(remap)
		}
	}
	for _, g := range c.Gates {
		touch(g.Q0)
		if g.Kind.TwoQubit() {
			touch(g.Q1)
		}
	}
	out := New(len(remap))
	for _, g := range c.Gates {
		g.Q0 = remap[g.Q0]
		if g.Kind.TwoQubit() {
			g.Q1 = remap[g.Q1]
		} else {
			g.Q1 = -1
		}
		out.Append(g)
	}
	return out, remap
}
