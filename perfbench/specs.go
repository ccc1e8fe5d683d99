package main

import (
	"fmt"
	"math/rand"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/serve"
)

// spec is one fixed instance shape: an architecture family at a size and a
// problem-graph family at a density. The graph, any relabeling and the noise
// calibration come from the run's seed.
type spec struct {
	arch    string // serve-layer architecture name
	n       int
	density float64
	regular bool // random regular graph instead of Erdős–Rényi
	noise   bool // noise-aware compile against a synthetic calibration
}

func (s spec) String() string {
	family := "er"
	if s.regular {
		family = "regular"
	}
	name := fmt.Sprintf("%s-%d/%s-%g", s.arch, s.n, family, s.density)
	if s.noise {
		name += "/noise"
	}
	return name
}

// coldSpecs are the paper's evaluation sizes (§7), where hybrid prediction
// does most of the work.
var coldSpecs = []spec{
	{arch: "grid", n: 25, density: 0.35},
	{arch: "grid", n: 36, density: 0.5},
	{arch: "hexagon", n: 48, density: 0.3},
	{arch: "sycamore", n: 49, density: 0.3},
	{arch: "grid", n: 64, density: 0.5},
	{arch: "heavy-hex", n: 64, density: 0.3, noise: true},
	{arch: "grid", n: 100, density: 0.1},
	{arch: "heavy-hex", n: 100, density: 0.05},
}

// greedySpecs are sizes where users pick the greedy strategy: hybrid costs
// 7-21x more there and returns the same circuit.
var greedySpecs = []spec{
	{arch: "grid", n: 144, density: 0.2},
	{arch: "sycamore", n: 196, density: 0.05},
	{arch: "heavy-hex", n: 256, density: 0.03},
	{arch: "grid", n: 256, density: 0.02, regular: true},
	{arch: "hexagon", n: 128, density: 0.1},
}

// servedSpecs are the small problems of the daemon's hot set.
var servedSpecs = []spec{
	{arch: "grid", n: 16, density: 0.4},
	{arch: "grid", n: 25, density: 0.35},
	{arch: "heavy-hex", n: 20, density: 0.3},
	{arch: "grid", n: 36, density: 0.3},
	{arch: "sycamore", n: 16, density: 0.4},
	{arch: "hexagon", n: 18, density: 0.35, noise: true},
}

// problem is one generated compile input.
type problem struct {
	name      string
	spec      spec
	noiseSeed int64
	edges     [][2]int
}

// newProblem draws spec's graph and calibration from rng.
func newProblem(s spec, rng *rand.Rand) (*problem, error) {
	seed, noiseSeed := rng.Int63(), rng.Int63()
	var p *ataqc.Problem
	if s.regular {
		var err error
		if p, err = ataqc.RegularProblem(s.n, s.density, seed); err != nil {
			return nil, fmt.Errorf("generate %s: %w", s, err)
		}
	} else {
		p = ataqc.RandomProblem(s.n, s.density, seed)
	}
	return &problem{name: s.String(), spec: s, noiseSeed: noiseSeed, edges: p.InteractionList()}, nil
}

// relabeled returns an isomorphic copy of p with its vertices renamed by a
// permutation drawn from rng.
func (p *problem) relabeled(name string, rng *rand.Rand) *problem {
	perm := rng.Perm(p.spec.n)
	edges := make([][2]int, len(p.edges))
	for i, e := range p.edges {
		edges[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	return &problem{name: name, spec: p.spec, noiseSeed: p.noiseSeed, edges: edges}
}

// public builds the library inputs for p.
func (p *problem) public(strategy ataqc.Strategy) (*ataqc.Device, *ataqc.Problem, ataqc.Options) {
	var dev *ataqc.Device
	switch p.spec.arch {
	case "grid":
		dev = ataqc.GridDevice(p.spec.n)
	case "sycamore":
		dev = ataqc.SycamoreDevice(p.spec.n)
	case "heavy-hex":
		dev = ataqc.HeavyHexDevice(p.spec.n)
	case "hexagon":
		dev = ataqc.HexagonDevice(p.spec.n)
	default:
		panic(fmt.Sprintf("perfbench: spec with unknown architecture %q", p.spec.arch))
	}
	if p.spec.noise {
		dev = dev.WithSyntheticNoise(p.noiseSeed)
	}
	prob := ataqc.NewProblem(p.spec.n)
	for _, e := range p.edges {
		prob.AddInteraction(e[0], e[1])
	}
	return dev, prob, ataqc.Options{Strategy: strategy, NoiseAware: p.spec.noise, Workers: 1}
}

// internal builds the same inputs in the form the compiler's layers take.
// The noise model is nil unless the spec is noise-aware.
func (p *problem) internal() (*arch.Arch, *graph.Graph, *noise.Model) {
	var a *arch.Arch
	switch p.spec.arch {
	case "grid":
		a = arch.GridN(p.spec.n)
	case "sycamore":
		a = arch.SycamoreN(p.spec.n)
	case "heavy-hex":
		a = arch.HeavyHexN(p.spec.n)
	case "hexagon":
		a = arch.HexagonN(p.spec.n)
	default:
		panic(fmt.Sprintf("perfbench: spec with unknown architecture %q", p.spec.arch))
	}
	g := graph.New(p.spec.n)
	for _, e := range p.edges {
		g.AddEdge(e[0], e[1])
	}
	var nm *noise.Model
	if p.spec.noise {
		nm = noise.Synthetic(a, p.noiseSeed)
	}
	return a, g, nm
}

// request is p as a daemon request body, asking for the QASM back.
func (p *problem) request(strategy ataqc.Strategy) *serve.CompileRequest {
	return &serve.CompileRequest{
		Arch:        p.spec.arch,
		N:           p.spec.n,
		Edges:       p.edges,
		Strategy:    string(strategy),
		Noise:       p.spec.noise,
		NoiseSeed:   p.noiseSeed,
		IncludeQASM: true,
	}
}
