package core

import (
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// TestOptionsDigestPinned pins optionsDigest (and through it
// noiseDigest) for a spread of option sets, noise-aware included. The
// digest is part of every result cache key, so a change here orphans
// every stored entry.
func TestOptionsDigestPinned(t *testing.T) {
	grid, mumbai := arch.Grid(3, 3), arch.Mumbai()
	offGraph := noise.Uniform(grid, 0.01, 0.001, 0.02, 0.0005)
	offGraph.TwoQubit[graph.NewEdge(0, 8)] = 0.5 // not a coupler
	cases := []struct {
		name string
		a    *arch.Arch
		opts Options
		want uint64
	}{
		{"defaults", grid, Options{}, 0x5f6196d5299cb945},
		{"greedy", grid, Options{Mode: ModeGreedy}, 0x30463694c845fc64},
		{"ata-angle", grid, Options{Mode: ModeATA, Angle: 0.7}, 0xee2281d44386e511},
		{"alpha-predictions", grid, Options{Alpha: 0.25, MaxPredictions: 5}, 0x22251465f4ba8000},
		{"crosstalk", mumbai, Options{CrosstalkAware: true}, 0x1063810d1687a104},
		{"noise-uniform", grid, Options{Noise: noise.Uniform(grid, 0.01, 0.001, 0.02, 0.0005)}, 0xfbbe2329a19315c},
		{"noise-ideal", grid, Options{Noise: noise.Ideal(grid)}, 0xf005348686dd2e7c},
		{"noise-off-graph-rate", grid, Options{Noise: offGraph}, 0x227c70e7bc126fd6},
		{"noise-synthetic", mumbai, Options{Noise: noise.Synthetic(mumbai, 7), CrosstalkAware: true}, 0x87780739ffddf154},
	}
	for _, c := range cases {
		opts := c.opts
		opts.applyDefaults()
		got := optionsDigest(c.a, &opts)
		if got != c.want {
			t.Errorf("%s: optionsDigest = %#x, want %#x", c.name, got, c.want)
		}
	}
}
