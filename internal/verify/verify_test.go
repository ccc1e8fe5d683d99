package verify_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// edges builds a problem graph on n vertices from pairs.
func edges(n int, pairs ...[2]int) *graph.Graph {
	g := graph.New(n)
	for _, p := range pairs {
		g.AddEdge(p[0], p[1])
	}
	return g
}

func zz(p, q int, tag graph.Edge) circuit.Gate { return circuit.NewZZ(p, q, 1, tag) }
func swap(p, q int) circuit.Gate               { return circuit.NewSwap(p, q) }
func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// TestAnalyzersTable: each deliberately corrupted circuit must make exactly
// the expected analyzer fire, and every other analyzer must stay silent.
func TestAnalyzersTable(t *testing.T) {
	line4 := arch.Line(4)
	type tc struct {
		name string
		pass *verify.Pass
		want map[string]int // analyzer name -> diagnostic count; absent = 0
		sub  string         // substring expected in some diagnostic
	}
	cases := []tc{
		{
			name: "clean",
			pass: func() *verify.Pass {
				p := edges(4, [2]int{0, 1}, [2]int{1, 2})
				b := circuit.NewBuilder(line4, 4, nil)
				b.ZZ(0, 1, 1, graph.NewEdge(0, 1))
				b.ZZ(1, 2, 1, graph.NewEdge(1, 2))
				return &verify.Pass{Circuit: b.C, Arch: line4, Problem: p, Initial: b.InitialMapping(),
					Final: b.CurrentMapping(), ReportedDepth: b.C.DecomposedDepth(), CheckDepth: true}
			}(),
			want: map[string]int{},
		},
		{
			name: "off-coupling CZ",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{zz(0, 2, graph.NewEdge(0, 2))}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 2}),
				Initial: identity(4),
			},
			want: map[string]int{"arch-conformance": 1},
			sub:  "not a coupling edge",
		},
		{
			name: "qubit out of device range",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{{Kind: circuit.GateCNOT, Q0: 0, Q1: 7}}},
				Arch:    line4,
			},
			want: map[string]int{"arch-conformance": 1},
			sub:  "out of range",
		},
		{
			name: "dropped term",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{zz(0, 1, graph.NewEdge(0, 1))}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}, [2]int{1, 2}),
				Initial: identity(4),
			},
			want: map[string]int{"coverage": 1, "sema": 1},
			sub:  "never realized",
		},
		{
			name: "duplicated term",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
					zz(0, 1, graph.NewEdge(0, 1)), zz(0, 1, graph.NewEdge(0, 1)),
				}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}),
				Initial: identity(4),
			},
			want: map[string]int{"coverage": 1, "sema": 1},
			sub:  "more than once",
		},
		{
			name: "stale tag",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{zz(0, 1, graph.NewEdge(1, 2))}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}),
				Initial: identity(4),
			},
			want: map[string]int{"coverage": 1},
			sub:  "tagged",
		},
		{
			name: "program gate on non-edge",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
					zz(0, 1, graph.NewEdge(0, 1)), zz(2, 3, graph.NewEdge(2, 3)),
				}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}),
				Initial: identity(4),
			},
			want: map[string]int{"coverage": 1, "sema": 1},
			sub:  "not an interaction term",
		},
		{
			name: "stale claimed final mapping",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
					zz(0, 1, graph.NewEdge(0, 1)), swap(1, 2),
				}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}),
				Initial: identity(4),
				Final:   identity(4), // wrong: the SWAP moved logicals 1 and 2
			},
			want: map[string]int{"perm-soundness": 2, "dead-swap": 1, "sema": 2},
			sub:  "compiler claims",
		},
		{
			name: "initial mapping collision",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{zz(0, 1, graph.NewEdge(0, 1))}},
				Arch:    line4,
				Problem: edges(2, [2]int{0, 1}),
				Initial: []int{0, 0},
			},
			want: map[string]int{"perm-soundness": 1},
			sub:  "holds both",
		},
		{
			name: "misreported depth",
			pass: &verify.Pass{
				Circuit:       &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{zz(0, 1, graph.NewEdge(0, 1))}},
				Arch:          line4,
				ReportedDepth: 17,
				CheckDepth:    true,
			},
			want: map[string]int{"depth-consistency": 1},
			sub:  "recomputed",
		},
		{
			name: "dead trailing swap",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
					zz(0, 1, graph.NewEdge(0, 1)), swap(1, 2),
				}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 1}),
				Initial: identity(4),
			},
			want: map[string]int{"dead-swap": 1},
			sub:  "wasted",
		},
		{
			name: "live swap stays silent",
			pass: &verify.Pass{
				Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
					swap(1, 2), zz(0, 1, graph.NewEdge(0, 2)),
				}},
				Arch:    line4,
				Problem: edges(4, [2]int{0, 2}),
				Initial: identity(4),
			},
			want: map[string]int{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diags := verify.Run(c.pass, verify.All...)
			got := map[string]int{}
			for _, d := range diags {
				got[d.Analyzer]++
			}
			for _, a := range verify.All {
				if got[a.Name] != c.want[a.Name] {
					t.Errorf("%s: %d diagnostics, want %d (all: %v)", a.Name, got[a.Name], c.want[a.Name], diags)
				}
			}
			if c.sub != "" {
				found := false
				for _, d := range diags {
					if strings.Contains(d.Message, c.sub) {
						found = true
					}
				}
				if !found {
					t.Errorf("no diagnostic mentions %q in %v", c.sub, diags)
				}
			}
		})
	}
}

// TestSeverities: the analyzer split drives AsError — warnings alone never
// produce an error, any error-severity finding does.
func TestSeverities(t *testing.T) {
	warn := []verify.Diagnostic{{Analyzer: "dead-swap", Severity: verify.SeverityWarning, Gate: 3, Message: "m"}}
	if err := verify.AsError(warn); err != nil {
		t.Fatalf("warnings produced error: %v", err)
	}
	mixed := append(warn, verify.Diagnostic{Analyzer: "coverage", Severity: verify.SeverityError, Gate: -1, Message: "m"})
	err := verify.AsError(mixed)
	if err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("error diagnostics not folded: %v", err)
	}
	if !strings.Contains(warn[0].String(), "gate 3") || !strings.Contains(warn[0].String(), "warning") {
		t.Fatalf("diagnostic rendering: %q", warn[0].String())
	}
}

// TestRunOrdersByGate: diagnostics come out in gate order with
// circuit-level findings (gate -1) last.
func TestRunOrdersByGate(t *testing.T) {
	line4 := arch.Line(4)
	pass := &verify.Pass{
		Circuit: &circuit.Circuit{NQubits: 4, Gates: []circuit.Gate{
			swap(0, 2),                    // off-coupling (gate 0)
			zz(0, 1, graph.NewEdge(0, 1)), // fine (gate 1)
		}},
		Arch:    line4,
		Problem: edges(4, [2]int{0, 1}, [2]int{2, 3}),
		Initial: identity(4),
	}
	diags := verify.Run(pass, verify.All...)
	if len(diags) < 2 {
		t.Fatalf("want >=2 diagnostics, got %v", diags)
	}
	for i := 1; i < len(diags); i++ {
		prev, cur := diags[i-1].Gate, diags[i].Gate
		if prev == -1 && cur != -1 {
			t.Fatalf("circuit-level diagnostic not last: %v", diags)
		}
	}
}

// TestSemaCatchesCompiledMutations: adversarial check on a real compiled
// circuit. The untouched output proves clean; dropping, duplicating, or
// mis-angling a single diagonal gate in the compiled stream must each trip
// the sema analyzer. This is the end-to-end teeth behind Theorem 6.1's
// equivalence claim — a wrong circuit cannot pass silently.
func TestSemaCatchesCompiledMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := arch.GridN(9)
	p := graph.GnpConnected(9, 0.35, rng)
	res, err := core.Compile(a, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pass := func(g []circuit.Gate) *verify.Pass {
		c := &circuit.Circuit{NQubits: res.Circuit.NQubits, Gates: g}
		return &verify.Pass{Circuit: c, Arch: a, Problem: p,
			Initial: res.Initial, Final: res.Final}
	}
	semaCount := func(g []circuit.Gate) int {
		n := 0
		for _, d := range verify.Run(pass(g), verify.Sema) {
			if d.Analyzer == "sema" {
				n++
			}
		}
		return n
	}
	orig := res.Circuit.Gates
	if n := semaCount(orig); n != 0 {
		t.Fatalf("unmutated compiled circuit not clean: %d sema findings", n)
	}
	// Pick a tagged diagonal gate to corrupt.
	target := -1
	for i, g := range orig {
		if g.Tagged && g.Kind == circuit.GateZZ {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("compiled circuit has no plain tagged ZZ to mutate")
	}
	mutate := func(name string, f func([]circuit.Gate) []circuit.Gate) {
		g := append([]circuit.Gate(nil), orig...)
		if n := semaCount(f(g)); n == 0 {
			t.Errorf("%s: sema did not flag the mutated circuit", name)
		}
	}
	mutate("dropped gate", func(g []circuit.Gate) []circuit.Gate {
		return append(g[:target], g[target+1:]...)
	})
	mutate("duplicated gate", func(g []circuit.Gate) []circuit.Gate {
		out := make([]circuit.Gate, 0, len(g)+1)
		out = append(out, g[:target+1]...)
		return append(out, g[target:]...)
	})
	mutate("mis-angled gate", func(g []circuit.Gate) []circuit.Gate {
		g[target].Angle *= 1.5
		return g
	})
}

// TestVerifiedCompilerOutputsAlwaysClean: the paper's hybrid compiler, on
// random Erdős–Rényi problems across all five architecture families and
// all three modes, must never trip an error-severity analyzer.
func TestVerifiedCompilerOutputsAlwaysClean(t *testing.T) {
	builders := []func(int) *arch.Arch{
		arch.Line,
		arch.GridN,
		arch.SycamoreN,
		arch.HeavyHexN,
		arch.HexagonN,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		a := builders[rng.Intn(len(builders))](n)
		p := graph.GnpConnected(n, 0.15+0.6*rng.Float64(), rng)
		mode := core.Mode(rng.Intn(3))
		res, err := core.Compile(a, p, core.Options{Mode: mode, Verify: true})
		if err != nil {
			t.Logf("seed %d (%s, %v): %v", seed, a.Name, mode, err)
			return false
		}
		for _, d := range res.Diagnostics {
			if d.Severity == verify.SeverityError {
				t.Logf("seed %d (%s, %v): %v", seed, a.Name, mode, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 36}); err != nil {
		t.Fatal(err)
	}
}

// TestDepthConsistencyStreams: the analyzer recomputes depth from the
// streamed decomposition, so a run allocates only the finish-time slice
// and Run's status list (materialising the decomposition cost 12 on this
// circuit), and it still rejects a gate Append would, with Append's panic.
func TestDepthConsistencyStreams(t *testing.T) {
	a := arch.Grid(4, 4)
	p := graph.GnpConnected(16, 0.4, rand.New(rand.NewSource(9)))
	res, err := core.Compile(a, p, core.Options{Mode: core.ModeGreedy})
	if err != nil {
		t.Fatal(err)
	}
	pass := &verify.Pass{Circuit: res.Circuit, Arch: a, Problem: p, Initial: res.Initial,
		Final: res.Final, ReportedDepth: res.Metrics.Depth, CheckDepth: true}
	if diags := verify.Run(pass, verify.DepthConsistency); len(diags) != 0 {
		t.Fatalf("clean compile flagged: %v", diags)
	}
	const ceiling = 2
	if allocs := testing.AllocsPerRun(20, func() { verify.Run(pass, verify.DepthConsistency) }); allocs > ceiling {
		t.Fatalf("depth-consistency run allocates %v times, ceiling %d", allocs, ceiling)
	}

	bad := &verify.Pass{Circuit: &circuit.Circuit{NQubits: 2, Gates: []circuit.Gate{swap(0, 1), swap(0, 5)}},
		ReportedDepth: 6, CheckDepth: true}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "circuit: invalid 2q gate cx on (0,5)") {
			t.Fatalf("out-of-range gate: recovered %v, want Append's panic", r)
		}
	}()
	verify.Run(bad, verify.DepthConsistency)
}
