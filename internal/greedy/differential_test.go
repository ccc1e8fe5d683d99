package greedy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// The differential suite pins the packed engine (engine.go) byte-identical
// to the preserved pre-rewrite scheduler (reference_test.go): every gate
// struct, the mappings, and the cycle count must agree on every instance,
// and every compiled circuit must pass the full strict verifier chain
// (which includes the sema phase-polynomial equivalence analyzer).

// assertIdentical compiles the instance with both engines and fails unless
// the results agree byte for byte (or both fail with the same error).
func assertIdentical(t *testing.T, name string, a *arch.Arch, p *graph.Graph, initial []int, opts Options) {
	t.Helper()
	ref, refErr := referenceCompile(a, p, initial, opts)
	got, gotErr := Compile(a, p, initial, opts)
	if (refErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: error divergence: reference=%v packed=%v", name, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text divergence:\n  reference: %v\n  packed:    %v", name, refErr, gotErr)
		}
		return
	}
	if got.Cycles != ref.Cycles {
		t.Fatalf("%s: cycles %d != reference %d", name, got.Cycles, ref.Cycles)
	}
	if got.Circuit.NQubits != ref.Circuit.NQubits {
		t.Fatalf("%s: nqubits %d != reference %d", name, got.Circuit.NQubits, ref.Circuit.NQubits)
	}
	if len(got.Circuit.Gates) != len(ref.Circuit.Gates) {
		t.Fatalf("%s: gate count %d != reference %d", name, len(got.Circuit.Gates), len(ref.Circuit.Gates))
	}
	for i := range ref.Circuit.Gates {
		if got.Circuit.Gates[i] != ref.Circuit.Gates[i] {
			t.Fatalf("%s: gate %d differs:\n  reference: %+v\n  packed:    %+v",
				name, i, ref.Circuit.Gates[i], got.Circuit.Gates[i])
		}
	}
	for l := range ref.Initial {
		if got.Initial[l] != ref.Initial[l] {
			t.Fatalf("%s: initial[%d] = %d != reference %d", name, l, got.Initial[l], ref.Initial[l])
		}
	}
	for l := range ref.Final {
		if got.Final[l] != ref.Final[l] {
			t.Fatalf("%s: final[%d] = %d != reference %d", name, l, got.Final[l], ref.Final[l])
		}
	}
	pass := &verify.Pass{Circuit: got.Circuit, Arch: a, Problem: p, Initial: got.Initial, Final: got.Final}
	if err := verify.Check(pass, verify.Strict...); err != nil {
		t.Fatalf("%s: packed circuit failed strict verification: %v", name, err)
	}
}

// diffArchs is the architecture axis of the differential matrix: one
// degenerate-connectivity device (line), one dense regular device (grid),
// one sparse irregular device (heavy-hex).
func diffArchs() []*arch.Arch {
	return []*arch.Arch{arch.Line(16), arch.Grid(4, 5), arch.HeavyHex(2, 8)}
}

// latticeProblem is the lattice problem family: a rows x cols grid graph,
// the hardest-to-distinguish case because it nearly matches grid couplings.
func latticeProblem(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}

// diffProblem draws the problem for (family, seed) sized to fit a.
func diffProblem(family string, a *arch.Arch, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := a.N()
	if n > 16 {
		n = 16
	}
	switch family {
	case "er-0.2":
		return graph.GnpConnected(n, 0.2, rng)
	case "er-0.5":
		return graph.GnpConnected(n, 0.5, rng)
	case "er-0.8":
		return graph.GnpConnected(n, 0.8, rng)
	case "regular-3":
		if n%2 == 1 {
			n--
		}
		return graph.MustRandomRegular(n, 3, rng)
	case "lattice":
		rows := 2 + int(seed%2)
		cols := n / rows
		if cols < 2 {
			cols = 2
		}
		return latticeProblem(rows, cols)
	}
	panic("unknown family " + family)
}

// diffOptions rotates compile options by seed so the matrix exercises the
// noise-aware, crosstalk-aware, and combined paths, plus non-default angle
// and cycle budgets.
func diffOptions(a *arch.Arch, seed int64) Options {
	var opts Options
	switch seed % 4 {
	case 1:
		opts.Noise = noise.Synthetic(a, seed)
	case 2:
		opts.CrosstalkAware = true
	case 3:
		opts.Noise = noise.Synthetic(a, seed)
		opts.CrosstalkAware = true
	}
	if seed%3 == 1 {
		opts.Angle = 0.37
	}
	return opts
}

// diffInitial alternates the curated placement with an adversarial random
// permutation (spread placements trigger long escorts and stall walks).
func diffInitial(a *arch.Arch, p *graph.Graph, seed int64) []int {
	if seed%2 == 0 {
		return InitialMapping(a, p)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(a.N())
	return perm[:p.N()]
}

// TestGreedyDifferentialSuite runs the full matrix: 3 archs x 5 graph
// families x 7 seeds = 105 instances, each with rotating noise/crosstalk
// options and placements, each checked byte-identical and strict-verified.
func TestGreedyDifferentialSuite(t *testing.T) {
	families := []string{"er-0.2", "er-0.5", "er-0.8", "regular-3", "lattice"}
	instances := 0
	for _, a := range diffArchs() {
		for _, fam := range families {
			for seed := int64(0); seed < 7; seed++ {
				p := diffProblem(fam, a, 1000*seed+int64(len(fam)))
				name := fmt.Sprintf("%s/%s/seed%d", a.Name, fam, seed)
				assertIdentical(t, name, a, p, diffInitial(a, p, seed), diffOptions(a, seed))
				instances++
			}
		}
	}
	if instances < 100 {
		t.Fatalf("differential matrix shrank to %d instances, need >= 100", instances)
	}
}

// TestGreedyDifferentialErrorPaths pins the failure contract: both engines
// must fail identically on disconnected devices and exhausted cycle budgets.
func TestGreedyDifferentialErrorPaths(t *testing.T) {
	// Disconnected architecture: two line components, a gate spanning them.
	disc := &arch.Arch{Name: "split-line-6", G: graph.New(6)}
	disc.G.AddEdge(0, 1)
	disc.G.AddEdge(1, 2)
	disc.G.AddEdge(3, 4)
	disc.G.AddEdge(4, 5)
	p := graph.New(6)
	p.AddEdge(0, 5)
	assertIdentical(t, "disconnected", disc, p, nil, Options{})

	// Cycle budget exhaustion mid-compile.
	a := arch.Line(10)
	clique := graph.Complete(10)
	assertIdentical(t, "budget", a, clique, InitialMapping(a, clique), Options{MaxCycles: 3})
}

// TestGreedyDifferentialCheckpoints pins the Checkpoint observation stream:
// prefix lengths, mapping snapshots, and cycle stamps must agree event for
// event (the hybrid compiler branches ATA prediction off these).
func TestGreedyDifferentialCheckpoints(t *testing.T) {
	type ckpt struct {
		prefix int
		l2p    string
		cycle  int
	}
	record := func(dst *[]ckpt) func(int, []int, int) {
		return func(prefixLen int, l2p []int, cycle int) {
			*dst = append(*dst, ckpt{prefixLen, fmt.Sprint(l2p), cycle})
		}
	}
	a := arch.Grid(4, 4)
	rng := rand.New(rand.NewSource(77))
	p := graph.GnpConnected(16, 0.5, rng)
	init := InitialMapping(a, p)

	var refC, gotC []ckpt
	if _, err := referenceCompile(a, p, init, Options{Checkpoint: record(&refC)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(a, p, init, Options{Checkpoint: record(&gotC)}); err != nil {
		t.Fatal(err)
	}
	if len(gotC) != len(refC) {
		t.Fatalf("checkpoint count %d != reference %d", len(gotC), len(refC))
	}
	for i := range refC {
		if gotC[i] != refC[i] {
			t.Fatalf("checkpoint %d differs: %+v != reference %+v", i, gotC[i], refC[i])
		}
	}
}

// TestGreedyPooledConcurrentDeterminism hammers the engine pool from many
// goroutines (the serving daemon's worker pattern): every concurrent compile
// of every instance must still match the reference byte for byte, and
// repeated runs with different worker counts must agree with each other.
func TestGreedyPooledConcurrentDeterminism(t *testing.T) {
	type inst struct {
		name string
		a    *arch.Arch
		p    *graph.Graph
		init []int
		opts Options
	}
	var insts []inst
	for i, a := range diffArchs() {
		rng := rand.New(rand.NewSource(int64(200 + i)))
		p := graph.GnpConnected(12, 0.5, rng)
		insts = append(insts, inst{
			name: a.Name,
			a:    a, p: p,
			init: InitialMapping(a, p),
			opts: diffOptions(a, int64(i)),
		})
	}
	refs := make([]*Result, len(insts))
	for i, in := range insts {
		ref, err := referenceCompile(in.a, in.p, in.init, in.opts)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for _, workers := range []int{1, 2, 8} {
		var wg sync.WaitGroup
		errs := make(chan error, workers*len(insts))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					for i, in := range insts {
						got, err := Compile(in.a, in.p, in.init, in.opts)
						if err != nil {
							errs <- fmt.Errorf("%s: %v", in.name, err)
							return
						}
						if len(got.Circuit.Gates) != len(refs[i].Circuit.Gates) {
							errs <- fmt.Errorf("%s: gate count diverged under concurrency", in.name)
							return
						}
						for g := range got.Circuit.Gates {
							if got.Circuit.Gates[g] != refs[i].Circuit.Gates[g] {
								errs <- fmt.Errorf("%s: gate %d diverged under concurrency", in.name, g)
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestGreedyPoolRebindsAcrossArchitectures interleaves compiles on archs of
// very different sizes so pooled engines are repeatedly rebound — stale
// arena contents from a bigger device must never leak into a smaller one.
func TestGreedyPoolRebindsAcrossArchitectures(t *testing.T) {
	big := arch.Grid(6, 6)
	small := arch.Line(6)
	rng := rand.New(rand.NewSource(31))
	pBig := graph.GnpConnected(16, 0.4, rng)
	pSmall := graph.GnpConnected(6, 0.8, rng)
	for round := 0; round < 3; round++ {
		assertIdentical(t, fmt.Sprintf("rebind-big-%d", round), big, pBig, InitialMapping(big, pBig), Options{})
		assertIdentical(t, fmt.Sprintf("rebind-small-%d", round), small, pSmall, InitialMapping(small, pSmall), Options{CrosstalkAware: true})
		assertIdentical(t, fmt.Sprintf("rebind-noise-%d", round), small, pSmall, InitialMapping(small, pSmall), Options{Noise: noise.Synthetic(small, 7)})
	}
}
