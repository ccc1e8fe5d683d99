package greedy

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// FuzzGreedyMatchesReference decodes arbitrary bytes into a (device,
// problem, placement, options) instance and requires the packed engine to
// match the reference oracle gate for gate. Registered in the CI fuzz
// smoke job next to FuzzQASMRoundTrip.
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add([]byte{0, 8, 128, 0, 42})
	f.Add([]byte{1, 12, 80, 3, 7})
	f.Add([]byte{2, 16, 200, 5, 99})
	f.Add([]byte{1, 16, 255, 6, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		archSel := int(data[0]) % 3
		nReq := 4 + int(data[1])%14 // 4..17 logical qubits
		density := 0.15 + float64(data[2])/255.0*0.75
		optSel := int(data[3])
		seed := int64(data[4])
		for _, b := range data[5:] {
			seed = seed*257 + int64(b)
		}

		var a *arch.Arch
		switch archSel {
		case 0:
			a = arch.Line(nReq + int(seed)%3)
		case 1:
			side := 3 + int(data[1])%3 // 3..5
			a = arch.Grid(side, side)
		default:
			a = arch.HeavyHex(2, 8)
		}
		n := nReq
		if n > a.N() {
			n = a.N()
		}
		rng := rand.New(rand.NewSource(seed))
		p := graph.GnpConnected(n, density, rng)

		var initial []int
		if optSel&1 != 0 {
			initial = rng.Perm(a.N())[:n]
		} else {
			initial = InitialMapping(a, p)
		}
		var opts Options
		if optSel&2 != 0 {
			opts.Noise = noise.Synthetic(a, seed)
		}
		if optSel&4 != 0 {
			opts.CrosstalkAware = true
		}
		if optSel&8 != 0 {
			opts.MaxCycles = 1 + int(data[2])%64 // exercise budget errors
		}

		ref, refErr := referenceCompile(a, p, initial, opts)
		got, gotErr := Compile(a, p, initial, opts)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("error divergence: reference=%v packed=%v", refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("error text divergence:\n  reference: %v\n  packed:    %v", refErr, gotErr)
			}
			return
		}
		if got.Cycles != ref.Cycles {
			t.Fatalf("cycles %d != reference %d", got.Cycles, ref.Cycles)
		}
		if len(got.Circuit.Gates) != len(ref.Circuit.Gates) {
			t.Fatalf("gate count %d != reference %d", len(got.Circuit.Gates), len(ref.Circuit.Gates))
		}
		for i := range ref.Circuit.Gates {
			if got.Circuit.Gates[i] != ref.Circuit.Gates[i] {
				t.Fatalf("gate %d differs:\n  reference: %+v\n  packed:    %+v",
					i, ref.Circuit.Gates[i], got.Circuit.Gates[i])
			}
		}
		for l := range ref.Final {
			if got.Initial[l] != ref.Initial[l] || got.Final[l] != ref.Final[l] {
				t.Fatalf("mapping divergence at logical %d", l)
			}
		}
	})
}
