package verify_test

import (
	"fmt"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// TestAnalyzersSurviveMalformedOperands: every analyzer but
// depth-consistency (which keeps Append's panic, see
// TestDepthConsistencyStreams) runs on program and SWAP gates with
// out-of-range, negative and self-loop operands without panicking, and
// arch-conformance reports each such gate.
func TestAnalyzersSurviveMalformedOperands(t *testing.T) {
	var analyzers []*verify.Analyzer
	for _, a := range verify.All {
		if a != verify.DepthConsistency {
			analyzers = append(analyzers, a)
		}
	}
	line2 := arch.Line(2)
	for _, kind := range []circuit.Kind{circuit.GateZZ, circuit.GateZZSwap, circuit.GateSwap} {
		for _, ops := range [][2]int{{0, 5}, {5, 0}, {-1, 1}, {1, -1}, {1, 1}, {-3, 7}} {
			name := fmt.Sprintf("%v(%d,%d)", kind, ops[0], ops[1])
			t.Run(name, func(t *testing.T) {
				bad := circuit.Gate{Kind: kind, Q0: ops[0], Q1: ops[1], Angle: 1, Tag: graph.NewEdge(0, 1), Tagged: kind != circuit.GateSwap}
				pass := &verify.Pass{
					Circuit: &circuit.Circuit{NQubits: 2, Gates: []circuit.Gate{zz(0, 1, graph.NewEdge(0, 1)), bad, swap(0, 1)}},
					Arch:    line2,
					Problem: edges(2, [2]int{0, 1}),
					Initial: identity(2),
					Final:   []int{1, 0},
					Angle:   1,
				}
				diags := verify.Run(pass, analyzers...)
				for _, d := range diags {
					if d.Analyzer == verify.ArchConformance.Name && d.Gate == 1 {
						return
					}
				}
				t.Fatalf("arch-conformance did not report the malformed gate: %v", diags)
			})
		}
	}
}

// TestPassRebuildsIndexesWhenGraphsGrow: a pass reused after an edge is
// added to its problem or coupling graph answers from a rebuilt index,
// not the cached one.
func TestPassRebuildsIndexesWhenGraphsGrow(t *testing.T) {
	a := arch.Line(3)
	p := edges(3, [2]int{0, 1})
	pass := &verify.Pass{
		Circuit: &circuit.Circuit{NQubits: 3, Gates: []circuit.Gate{zz(0, 2, graph.NewEdge(0, 2))}},
		Arch:    a,
		Problem: p,
		Initial: identity(3),
	}
	if ix := pass.EdgeIndex(); ix.M() != 1 || ix.ID(0, 2) != -1 {
		t.Fatalf("index of a one-edge problem: M = %d, ID(0,2) = %d", ix.M(), ix.ID(0, 2))
	}
	if n := len(verify.Run(pass, verify.ArchConformance)); n != 1 {
		t.Fatalf("zz(0,2) on a line: %d arch-conformance findings, want 1", n)
	}
	p.AddEdge(0, 2)
	a.G.AddEdge(0, 2)
	if ix := pass.EdgeIndex(); ix.M() != 2 || ix.ID(0, 2) != 1 {
		t.Fatalf("index after AddEdge(0,2): M = %d, ID(0,2) = %d, want 2 and 1", ix.M(), ix.ID(0, 2))
	}
	if diags := verify.Run(pass, verify.ArchConformance); len(diags) != 0 {
		t.Fatalf("zz(0,2) once (0,2) is coupled: %v", diags)
	}
}
