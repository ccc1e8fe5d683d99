package verify_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// compiledPass compiles a small random problem and returns a sema pass
// over the result, pinned to the compile's program angle.
func compiledPass(t testing.TB, n int, density float64, seed int64, archRaw, modeRaw uint8, angle float64) *verify.Pass {
	builders := []func(int) *arch.Arch{arch.GridN, arch.Line, arch.HeavyHexN, arch.SycamoreN}
	a := builders[int(archRaw)%len(builders)](n)
	p := graph.GnpConnected(n, density, rand.New(rand.NewSource(seed)))
	mode := []core.Mode{core.ModeHybrid, core.ModeGreedy, core.ModeATA}[int(modeRaw)%3]
	res, err := core.Compile(a, p, core.Options{Mode: mode, Angle: angle, Workers: 1})
	if err != nil {
		t.Fatalf("compile n=%d density=%.2f seed=%d: %v", n, density, seed, err)
	}
	return &verify.Pass{Circuit: res.Circuit, Arch: a, Problem: p,
		Initial: res.Initial, Final: res.Final, Angle: angle}
}

// mutate applies one mutation per 3-byte op to a copy of gates: drop,
// duplicate or re-angle a gate, retarget an operand (possibly out of
// range or onto the other operand), insert a CNOT/RZ/H/RX or a SWAP pair,
// or truncate. Ops naming a position past the end wrap around.
func mutate(gates []circuit.Gate, nq int, ops []byte) []circuit.Gate {
	g := append([]circuit.Gate(nil), gates...)
	for i := 0; i+2 < len(ops); i += 3 {
		op, arg := ops[i]%10, int(ops[i+2])
		if len(g) == 0 {
			return g
		}
		at := int(ops[i+1]) * len(g) / 256
		q := arg%(nq+2) - 1 // -1..nq: out-of-range on both sides
		switch op {
		case 0:
			g = append(g[:at], g[at+1:]...)
		case 1:
			g = append(g[:at+1], g[at:]...)
		case 2:
			g[at].Angle *= []float64{0, -1, 0.5, 1 + 1e-12, 2, math.NaN()}[arg%6]
		case 3:
			g[at].Q0 = q
		case 4:
			g[at].Q1 = q
		case 5:
			kind := []circuit.Kind{circuit.GateCNOT, circuit.GateRZ, circuit.GateH, circuit.GateRX}[arg%4]
			ins := circuit.Gate{Kind: kind, Q0: g[at].Q0, Q1: -1, Angle: 0.25}
			if kind == circuit.GateCNOT {
				ins.Q1 = g[at].Q1
			}
			g = append(g[:at], append([]circuit.Gate{ins}, g[at:]...)...)
		case 6:
			s := circuit.NewSwap(g[at].Q0, g[at].Q1)
			g = append(g[:at], append([]circuit.Gate{s, s}, g[at:]...)...)
		case 7:
			g = g[:at]
		case 8:
			g[at].Kind = []circuit.Kind{circuit.GateZZ, circuit.GateSwap, circuit.GateZZSwap, circuit.Kind(9)}[arg%4]
		case 9:
			// A no-op op keeps most inputs on the dense proof's clean path.
		}
	}
	return g
}

// FuzzSemaDenseMatchesGeneral: on compiled circuits and their mutations,
// the sema analyzer (dense edge-indexed proof with general fallback)
// reports exactly what the general engine alone reports.
func FuzzSemaDenseMatchesGeneral(f *testing.F) {
	f.Add(uint8(6), uint8(128), int64(1), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(9), uint8(60), int64(7), uint8(1), uint8(1), uint8(16), []byte{0, 40, 0})
	f.Add(uint8(12), uint8(220), int64(42), uint8(2), uint8(2), uint8(1), []byte{0, 90, 3, 6, 10, 0})
	f.Add(uint8(8), uint8(200), int64(3), uint8(0), uint8(0), uint8(2), []byte{5, 100, 0, 3, 7, 5, 8, 30, 1})
	f.Add(uint8(10), uint8(100), int64(5), uint8(3), uint8(1), uint8(3), []byte{7, 200, 0})
	f.Fuzz(func(t *testing.T, nRaw, densRaw uint8, seed int64, archRaw, modeRaw, angleRaw uint8, ops []byte) {
		n := 4 + int(nRaw)%9
		density := 0.15 + float64(densRaw)/255.0*0.75
		// 0.875 sums exactly; 1e-10 sits inside sema.Tol of zero, where
		// only the realized-count check tells a dropped term apart.
		pass := compiledPass(t, n, density, seed, archRaw, modeRaw, []float64{0.875, 1e-10}[angleRaw%2])
		pass.Circuit = &circuit.Circuit{NQubits: pass.Circuit.NQubits,
			Gates: mutate(pass.Circuit.Gates, pass.Circuit.NQubits, ops)}
		pass.Angle = []float64{pass.Angle, 0, 1, -pass.Angle}[angleRaw/2%4]
		if angleRaw/8%3 == 2 {
			final := append([]int(nil), pass.Final...)
			final[0], final[1] = final[1], final[0]
			pass.Final = final
		}
		want := verify.SemaGeneral(pass)
		got := verify.Sema.Run(pass)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sema analyzer diverges from the general engine:\n got  %v\n want %v", got, want)
		}
	})
}

// TestSemaUniformNaNAngleIsDeterministic: in uniform mode (Pass.Angle
// 0) a term whose angle is NaN must not take part in electing the
// consensus angle. It once did, and the diagnostics then depended on map
// iteration order: some runs reported every term, others none of them,
// the NaN term included. Every run must give the same diagnostics, and
// one of them must name the NaN term.
func TestSemaUniformNaNAngleIsDeterministic(t *testing.T) {
	pass := compiledPass(t, 8, 0.5, 1, 0, 0, 0.875)
	pass.Angle = 0
	gates := append([]circuit.Gate(nil), pass.Circuit.Gates...)
	p2l := make([]int, pass.Circuit.NQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, ph := range pass.Initial {
		p2l[ph] = l
	}
	term := ""
	for i, g := range gates {
		if g.Kind == circuit.GateZZ || g.Kind == circuit.GateZZSwap {
			gates[i].Angle = math.NaN()
			u, v := min(p2l[g.Q0], p2l[g.Q1]), max(p2l[g.Q0], p2l[g.Q1])
			term = fmt.Sprintf("term (%d,%d) ", u, v)
			break
		}
		if g.Kind == circuit.GateSwap {
			p2l[g.Q0], p2l[g.Q1] = p2l[g.Q1], p2l[g.Q0]
		}
	}
	if term == "" {
		t.Fatal("compiled circuit has no ZZ gate")
	}
	pass.Circuit = &circuit.Circuit{NQubits: pass.Circuit.NQubits, Gates: gates}

	first := verify.SemaGeneral(pass)
	found := false
	for _, d := range first {
		if strings.Contains(d.Message, term) && strings.Contains(d.Message, "NaN") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no diagnostic names the NaN %s: %v", term, first)
	}
	for run := 1; run < 20; run++ {
		if got := verify.SemaGeneral(pass); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverges:\n got  %v\n first %v", run, got, first)
		}
	}
}

// TestSemaDenseAllocs pins the dense proof's cost on a clean compiled
// grid-36 circuit: a handful of arrays, where the general engine
// allocated per gate and per term.
func TestSemaDenseAllocs(t *testing.T) {
	pass := compiledPass(t, 36, 0.5, 7, 0, 0, 0.875)
	if diags := verify.Run(pass, verify.Sema); len(diags) != 0 {
		t.Fatalf("clean compile flagged: %v", diags)
	}
	const ceiling = 32
	if allocs := testing.AllocsPerRun(20, func() { verify.Run(pass, verify.Sema) }); allocs > ceiling {
		t.Fatalf("sema run allocates %v times, ceiling %d", allocs, ceiling)
	}
}
