package circuit

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestExpandTemplates pins the CX-basis template of every gate kind as
// literals, and checks Decompose emits exactly Expand's gates.
func TestExpandTemplates(t *testing.T) {
	tag := graph.NewEdge(2, 7)
	cases := []struct {
		in   Gate
		want []Gate
	}{
		{Gate{Kind: GateH, Q0: 3, Q1: -1}, []Gate{{Kind: GateH, Q0: 3, Q1: -1}}},
		{Gate{Kind: GateRX, Q0: 1, Q1: -1, Angle: 0.25}, []Gate{{Kind: GateRX, Q0: 1, Q1: -1, Angle: 0.25}}},
		{Gate{Kind: GateRZ, Q0: 0, Q1: -1, Angle: -1.5}, []Gate{{Kind: GateRZ, Q0: 0, Q1: -1, Angle: -1.5}}},
		{Gate{Kind: GateCNOT, Q0: 2, Q1: 1}, []Gate{{Kind: GateCNOT, Q0: 2, Q1: 1}}},
		{NewZZ(1, 3, 0.7, tag), []Gate{
			{Kind: GateCNOT, Q0: 1, Q1: 3},
			{Kind: GateRZ, Q0: 3, Q1: -1, Angle: 0.7},
			{Kind: GateCNOT, Q0: 1, Q1: 3},
		}},
		{NewSwap(3, 0), []Gate{
			{Kind: GateCNOT, Q0: 3, Q1: 0},
			{Kind: GateCNOT, Q0: 0, Q1: 3},
			{Kind: GateCNOT, Q0: 3, Q1: 0},
		}},
		{Gate{Kind: GateZZSwap, Q0: 0, Q1: 2, Angle: 0.3, Tag: tag, Tagged: true}, []Gate{
			{Kind: GateCNOT, Q0: 0, Q1: 2},
			{Kind: GateRZ, Q0: 2, Q1: -1, Angle: 0.3},
			{Kind: GateCNOT, Q0: 2, Q1: 0},
			{Kind: GateCNOT, Q0: 0, Q1: 2},
		}},
	}
	covered := map[Kind]bool{}
	for _, tc := range cases {
		covered[tc.in.Kind] = true
		var buf [4]Gate
		if got := tc.in.Expand(&buf); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v.Expand:\n got  %+v\n want %+v", tc.in.Kind, got, tc.want)
		}
		c := New(8)
		c.Append(tc.in)
		if got := c.Decompose().Gates; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Decompose(%v):\n got  %+v\n want %+v", tc.in.Kind, got, tc.want)
		}
	}
	for k := GateH; k <= GateZZSwap; k++ {
		if !covered[k] {
			t.Errorf("kind %v has no pinned template", k)
		}
	}
}

// TestExpandActsOnSourceOperands pins the premise of checking a gate's
// operands once per source gate: for every kind, each gate Expand emits
// acts only on the source gate's operands, and the first one acts on all
// of them, so Check of the first accepts exactly when Check of the
// source and of every expanded gate does.
func TestExpandActsOnSourceOperands(t *testing.T) {
	c := New(4)
	for k := GateH; k <= GateZZSwap+1; k++ {
		for _, ops := range [][2]int{{1, 2}, {2, 1}, {0, 3}, {1, 1}, {-1, 2}, {2, 4}, {4, -1}} {
			src := Gate{Kind: k, Q0: ops[0], Q1: ops[1], Angle: 0.5}
			if !k.TwoQubit() {
				src.Q1 = -1
			}
			var buf [4]Gate
			exp := src.Expand(&buf)
			for i, e := range exp {
				if e.Q0 != src.Q0 && e.Q0 != src.Q1 {
					t.Fatalf("%v%v: expanded gate %d %v acts on qubit %d", k, ops, i, e.Kind, e.Q0)
				}
				if e.Kind.TwoQubit() && (!k.TwoQubit() || e.Q1 != src.Q0 && e.Q1 != src.Q1) {
					t.Fatalf("%v%v: expanded gate %d %v acts on qubit %d", k, ops, i, e.Kind, e.Q1)
				}
			}
			if first := exp[0]; k.TwoQubit() && (!first.Kind.TwoQubit() || pairOf(first) != pairOf(src)) {
				t.Fatalf("%v%v: first expanded gate %+v does not act on both operands", k, ops, first)
			}
			firstOK := accepts(c, exp[0])
			allOK := accepts(c, src)
			for _, e := range exp {
				allOK = allOK && accepts(c, e)
			}
			if firstOK != allOK {
				t.Fatalf("%v%v: Check of the first expanded gate says %v, of the source and expansion %v", k, ops, firstOK, allOK)
			}
		}
	}
}

// pairOf returns a two-qubit gate's operands as an unordered pair.
func pairOf(g Gate) graph.Edge { return graph.NewEdge(g.Q0, g.Q1) }

// accepts reports whether c.Check passes g.
func accepts(c *Circuit, g Gate) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	c.Check(g)
	return true
}

// randomCircuit draws a circuit over every gate kind.
func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	c := New(n)
	for i := 0; i < gates; i++ {
		k := Kind(rng.Intn(int(GateZZSwap) + 1))
		p := rng.Intn(n)
		g := Gate{Kind: k, Q0: p, Q1: -1, Angle: rng.NormFloat64()}
		if k.TwoQubit() {
			g.Q1 = (p + 1 + rng.Intn(n-1)) % n
		}
		c.Append(g)
	}
	return c
}

// TestDecomposedDepthMatchesMaterialised: the streamed depth equals the
// depth of the materialised decomposition on random circuits.
func TestDecomposedDepthMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		c := randomCircuit(rng, 2+rng.Intn(10), rng.Intn(80))
		if got, want := c.DecomposedDepth(), c.Decompose().Depth(); got != want {
			t.Fatalf("circuit %d: DecomposedDepth %d, Decompose().Depth() %d", i, got, want)
		}
	}
}

// TestSummarizeMatchesSeparatePasses: the one-pass Summarize equals the
// streamed DecomposedDepth and the separate TwoQubitDepth, CXCount and
// GateCount passes on random circuits of every gate kind.
func TestSummarizeMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		c := randomCircuit(rng, 2+rng.Intn(10), rng.Intn(120))
		s := c.Summarize()
		if s.Depth != c.DecomposedDepth() || s.TwoQubitDepth != c.TwoQubitDepth() || s.CXCount != c.CXCount() {
			t.Fatalf("circuit %d: Summarize %+v, separate passes depth %d, 2q depth %d, CX %d",
				i, s, c.DecomposedDepth(), c.TwoQubitDepth(), c.CXCount())
		}
		counts := c.GateCount()
		for k := GateH; k <= GateZZSwap; k++ {
			if s.Counts[k] != counts[k] {
				t.Fatalf("circuit %d: Summarize counts %d %v gates, GateCount %d", i, s.Counts[k], k, counts[k])
			}
		}
	}
}

// TestDecomposedStopsEarly: yield returning false ends the stream.
func TestDecomposedStopsEarly(t *testing.T) {
	c := New(2)
	c.Append(NewSwap(0, 1), NewSwap(0, 1))
	seen := 0
	c.Decomposed(func(Gate) bool { seen++; return seen < 4 })
	if seen != 4 {
		t.Fatalf("yield called %d times after asking to stop at 4", seen)
	}
}

// TestDecomposedDepthAllocs pins the streamed depth to its one scratch
// slice: the decomposition is never materialised.
func TestDecomposedDepthAllocs(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(16)), 8, 200)
	if allocs := testing.AllocsPerRun(20, func() { c.DecomposedDepth() }); allocs > 1 {
		t.Fatalf("DecomposedDepth allocates %v times per run, ceiling 1", allocs)
	}
}

// mustPanicWith runs f and requires it to panic with message want.
func mustPanicWith(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s accepted a gate Append rejects", what)
		}
		if got := fmt.Sprint(r); got != want {
			t.Fatalf("%s panicked with %q, want %q", what, got, want)
		}
	}()
	f()
}
