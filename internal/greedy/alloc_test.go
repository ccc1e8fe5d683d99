package greedy

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestPackedEngineZeroAllocs pins the tentpole's allocation contract: once
// an engine's arenas are warm, a full scheduling run (everything except the
// Result materialisation, which by design hands out fresh memory) performs
// zero heap allocations. Any map, closure, or slice regression in the hot
// loop shows up here as a hard failure. It runs on a 20-qubit problem with
// and without crosstalk, and on every packedGateInstances workload.
func TestPackedEngineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation and pool semantics skew allocation counts")
	}
	a := arch.Grid(6, 6)
	p := graph.GnpConnected(20, 0.5, rand.New(rand.NewSource(17)))
	cases := []gateInstance{
		{"plain", a, p, Options{}},
		{"crosstalk", a, p, Options{CrosstalkAware: true}},
	}
	for _, tc := range append(cases, packedGateInstances()...) {
		t.Run(tc.name, func(t *testing.T) {
			init := InitialMapping(tc.a, tc.p)
			eng := acquireEngine(tc.a)
			defer releaseEngine(eng)
			for i := 0; i < 3; i++ { // warm every arena to steady-state capacity
				if err := eng.run(tc.p, init, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.run(tc.p, init, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("scheduling loop allocates %.1f objects per compile, want 0", allocs)
			}
		})
	}
}
