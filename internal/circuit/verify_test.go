package circuit_test

import (
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// check runs the verifier's placement checks over a builder-made
// circuit: every 2q gate on a coupler, a sound mapping replay, and every
// problem edge scheduled exactly once under its own tag.
func check(c *circuit.Circuit, a *arch.Arch, problem *graph.Graph, initial []int) error {
	return verify.Check(&verify.Pass{Circuit: c, Arch: a, Problem: problem, Initial: initial},
		verify.ArchConformance, verify.PermSoundness, verify.Coverage)
}

func wantFinding(t *testing.T, err error, accepted, finding string) {
	t.Helper()
	if err == nil {
		t.Fatal(accepted)
	}
	if !strings.Contains(err.Error(), finding) {
		t.Fatalf("error %q does not report %q", err, finding)
	}
}

func TestValidateAcceptsCorrectCircuit(t *testing.T) {
	a := arch.Line(3)
	problem := graph.Complete(3)
	b := circuit.NewBuilder(a, 3, nil)
	b.ZZ(0, 1, 1, graph.NewEdge(0, 1))
	b.ZZ(1, 2, 1, graph.NewEdge(1, 2))
	b.Swap(1, 2)
	b.ZZ(0, 1, 1, graph.NewEdge(0, 2))
	if err := check(b.C, a, problem, b.InitialMapping()); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
}

func TestValidateRejectsMissingEdge(t *testing.T) {
	a := arch.Line(3)
	problem := graph.Complete(3)
	b := circuit.NewBuilder(a, 3, nil)
	b.ZZ(0, 1, 1, graph.NewEdge(0, 1))
	wantFinding(t, check(b.C, a, problem, b.InitialMapping()), "incomplete circuit accepted", "interaction term (0,2) never realized")
}

func TestValidateRejectsDuplicateEdge(t *testing.T) {
	a := arch.Line(2)
	problem := graph.Complete(2)
	b := circuit.NewBuilder(a, 2, nil)
	b.ZZ(0, 1, 1, graph.NewEdge(0, 1))
	b.ZZ(0, 1, 1, graph.NewEdge(0, 1))
	wantFinding(t, check(b.C, a, problem, b.InitialMapping()), "duplicate program gate accepted", "realized more than once")
}

func TestValidateRejectsWrongTag(t *testing.T) {
	a := arch.Line(3)
	problem := graph.Complete(3)
	c := circuit.New(3)
	// Tag says (0,2) but qubits hold logical 0,1.
	c.Append(circuit.NewZZ(0, 1, 1, graph.NewEdge(0, 2)))
	wantFinding(t, check(c, a, problem, []int{0, 1, 2}), "mistagged gate accepted", "tagged (0,2) but the resident logical pair is (0,1)")
}

func TestValidateZZSwapUpdatesMapping(t *testing.T) {
	a := arch.Line(3)
	problem := graph.New(3)
	problem.AddEdge(0, 1)
	problem.AddEdge(0, 2)
	b := circuit.NewBuilder(a, 3, nil)
	b.ZZSwap(0, 1, 1, graph.NewEdge(0, 1)) // logical 0 moves to phys 1
	b.ZZ(1, 2, 1, graph.NewEdge(0, 2))
	if err := check(b.C, a, problem, b.InitialMapping()); err != nil {
		t.Fatalf("zzswap circuit rejected: %v", err)
	}
}
