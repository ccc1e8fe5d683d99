package circuit

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

func TestKindProperties(t *testing.T) {
	if GateH.TwoQubit() || GateRZ.TwoQubit() || GateRX.TwoQubit() {
		t.Fatal("1q gate reported as 2q")
	}
	for _, k := range []Kind{GateZZ, GateCNOT, GateSwap, GateZZSwap} {
		if !k.TwoQubit() {
			t.Fatalf("%v not 2q", k)
		}
	}
	if GateZZ.CXCost() != 2 || GateSwap.CXCost() != 3 || GateZZSwap.CXCost() != 3 || GateCNOT.CXCost() != 1 || GateH.CXCost() != 0 {
		t.Fatal("CX costs wrong")
	}
}

func TestDepthSerialVsParallel(t *testing.T) {
	c := New(4)
	// Two disjoint 2q gates: depth 1.
	c.Append(NewSwap(0, 1), NewSwap(2, 3))
	if d := c.Depth(); d != 1 {
		t.Fatalf("parallel depth = %d", d)
	}
	// A dependent gate: depth 2.
	c.Append(NewSwap(1, 2))
	if d := c.Depth(); d != 2 {
		t.Fatalf("chained depth = %d", d)
	}
}

func TestTwoQubitDepthIgnores1Q(t *testing.T) {
	c := New(2)
	for i := 0; i < 5; i++ {
		c.Append(Gate{Kind: GateH, Q0: 0, Q1: -1})
	}
	c.Append(NewSwap(0, 1))
	if d := c.TwoQubitDepth(); d != 1 {
		t.Fatalf("2q depth = %d", d)
	}
	if d := c.Depth(); d != 6 {
		t.Fatalf("full depth = %d", d)
	}
}

func TestCXCount(t *testing.T) {
	c := New(3)
	c.Append(
		NewZZ(0, 1, 0.5, graph.NewEdge(0, 1)),
		NewSwap(1, 2),
		Gate{Kind: GateZZSwap, Q0: 0, Q1: 1, Angle: 0.3},
		Gate{Kind: GateH, Q0: 2, Q1: -1},
	)
	if n := c.CXCount(); n != 2+3+3 {
		t.Fatalf("CX count = %d, want 8", n)
	}
}

func TestDecomposeKindsAndCounts(t *testing.T) {
	c := New(3)
	c.Append(
		NewZZ(0, 1, 0.5, graph.NewEdge(0, 1)),
		NewSwap(1, 2),
		Gate{Kind: GateZZSwap, Q0: 0, Q1: 1, Angle: 0.3},
	)
	d := c.Decompose()
	counts := d.GateCount()
	if counts[GateCNOT] != c.CXCount() {
		t.Fatalf("decomposed CX = %d, want %d", counts[GateCNOT], c.CXCount())
	}
	if counts[GateZZ] != 0 || counts[GateSwap] != 0 || counts[GateZZSwap] != 0 {
		t.Fatal("composite gates survived decomposition")
	}
	if d.CXCount() != c.CXCount() {
		t.Fatal("CX count not preserved by decomposition")
	}
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	for _, bad := range []Gate{
		{Kind: GateSwap, Q0: 0, Q1: 0},
		{Kind: GateSwap, Q0: 0, Q1: 5},
		{Kind: GateH, Q0: -1, Q1: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad gate %+v accepted", bad)
				}
			}()
			c.Append(bad)
		}()
	}
	// The streaming paths never materialise through Append, but they must
	// reject the same gates with the panic Decompose's Append raises on the
	// first offending expanded gate.
	for _, tc := range []struct {
		bad  Gate
		want string
	}{
		{Gate{Kind: GateSwap, Q0: 0, Q1: 0}, "circuit: invalid 2q gate cx on (0,0)"},
		{Gate{Kind: GateSwap, Q0: 0, Q1: 5}, "circuit: invalid 2q gate cx on (0,5)"},
		{Gate{Kind: GateZZ, Q0: 2, Q1: 0}, "circuit: qubit 2 out of range"},
		{Gate{Kind: GateH, Q0: -1, Q1: -1}, "circuit: qubit -1 out of range"},
		{Gate{Kind: GateCNOT, Q0: 1, Q1: 1}, "circuit: invalid 2q gate cx on (1,1)"},
		{Gate{Kind: GateZZSwap, Q0: 0, Q1: 3}, "circuit: invalid 2q gate cx on (0,3)"},
		{Gate{Kind: GateRZ, Q0: 2, Q1: -1}, "circuit: qubit 2 out of range"},
	} {
		bad := &Circuit{NQubits: 2, Gates: []Gate{NewSwap(0, 1), tc.bad}}
		mustPanicWith(t, "Decompose", tc.want, func() { bad.Decompose() })
		mustPanicWith(t, "DecomposedDepth", tc.want, func() { bad.DecomposedDepth() })
		mustPanicWith(t, "Summarize", tc.want, func() { bad.Summarize() })
		var out bytes.Buffer
		mustPanicWith(t, "WriteQASM", tc.want, func() { bad.WriteQASM(&out) })
		if out.Len() != 0 {
			t.Fatalf("WriteQASM wrote %d bytes before rejecting %+v", out.Len(), tc.bad)
		}
	}
}

func TestBuilderMappingTracking(t *testing.T) {
	a := arch.Line(4)
	b := NewBuilder(a, 4, nil)
	if b.PhysOf(2) != 2 || b.LogicalAt(3) != 3 {
		t.Fatal("identity mapping wrong")
	}
	b.Swap(1, 2)
	if b.PhysOf(1) != 2 || b.PhysOf(2) != 1 {
		t.Fatal("mapping not updated by swap")
	}
	if b.LogicalAt(1) != 2 || b.LogicalAt(2) != 1 {
		t.Fatal("reverse mapping not updated")
	}
	b.ZZSwap(0, 1, 0.1, graph.NewEdge(0, 2))
	if b.PhysOf(0) != 1 || b.PhysOf(2) != 0 {
		t.Fatal("zzswap mapping wrong")
	}
}

func TestBuilderRejectsUncoupled(t *testing.T) {
	a := arch.Line(4)
	b := NewBuilder(a, 4, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("uncoupled swap accepted")
		}
	}()
	b.Swap(0, 2)
}

func TestBuilderCustomMapping(t *testing.T) {
	a := arch.Line(4)
	b := NewBuilder(a, 3, []int{3, 1, 0})
	if b.PhysOf(0) != 3 || b.LogicalAt(2) != -1 {
		t.Fatal("custom mapping wrong")
	}
	got := b.InitialMapping()
	if len(got) != 3 || got[0] != 3 {
		t.Fatal("initial mapping copy wrong")
	}
	got[0] = 99
	if b.PhysOf(0) != 3 {
		t.Fatal("initial mapping not a copy")
	}
}

// Property: depth is monotone under appending gates, and never exceeds the
// gate count; CXCount equals the decomposed circuit's CNOT tally.
func TestDepthMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c := New(n)
		prev := 0
		for i := 0; i < 30; i++ {
			p := rng.Intn(n)
			q := rng.Intn(n)
			if p == q {
				c.Append(Gate{Kind: GateRZ, Q0: p, Q1: -1, Angle: rng.Float64()})
			} else {
				c.Append(NewSwap(p, q))
			}
			d := c.Depth()
			if d < prev || d > len(c.Gates) {
				return false
			}
			prev = d
		}
		return c.Decompose().GateCount()[GateCNOT] == c.CXCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLayersConsistentWithDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := New(6)
	for i := 0; i < 40; i++ {
		p, q := rng.Intn(6), rng.Intn(6)
		if p == q {
			c.Append(Gate{Kind: GateRZ, Q0: p, Q1: -1, Angle: 0.1})
		} else {
			c.Append(NewSwap(p, q))
		}
	}
	layers := c.Layers()
	if len(layers) != c.Depth() {
		t.Fatalf("layers %d != depth %d", len(layers), c.Depth())
	}
	// Each layer's gates are qubit-disjoint and every gate appears once.
	seen := make([]bool, len(c.Gates))
	for li, layer := range layers {
		used := map[int]bool{}
		for _, gi := range layer {
			if seen[gi] {
				t.Fatalf("gate %d in two layers", gi)
			}
			seen[gi] = true
			g := c.Gates[gi]
			if used[g.Q0] || (g.Kind.TwoQubit() && used[g.Q1]) {
				t.Fatalf("layer %d not qubit-disjoint", li)
			}
			used[g.Q0] = true
			if g.Kind.TwoQubit() {
				used[g.Q1] = true
			}
		}
	}
	for gi, s := range seen {
		if !s {
			t.Fatalf("gate %d missing from layers", gi)
		}
	}
}
