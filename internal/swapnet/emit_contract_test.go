package swapnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// copyStep deep-copies s, normalising empty slices to nil.
func copyStep(s Step) Step {
	c := Step{ParallelSwaps: s.ParallelSwaps}
	if len(s.Compute) > 0 {
		c.Compute = append([]PhysGate(nil), s.Compute...)
	}
	for _, l := range s.Swaps {
		var cl []graph.Edge
		if len(l) > 0 {
			cl = append([]graph.Edge(nil), l...)
		}
		c.Swaps = append(c.Swaps, cl)
	}
	return c
}

// scribble overwrites everything s's slices can reach, up to capacity, and
// points its swap layers at garbage.
func scribble(s Step) {
	junk := PhysGate{P: -7, Q: -7, Tag: graph.Edge{U: -7, V: -7}, Fused: true}
	for i := range s.Compute[:cap(s.Compute)] {
		s.Compute[:cap(s.Compute)][i] = junk
	}
	for i, l := range s.Swaps[:cap(s.Swaps)] {
		for j := range l[:cap(l)] {
			l[:cap(l)][j] = graph.Edge{U: -7, V: -7}
		}
		s.Swaps[:cap(s.Swaps)][i] = []graph.Edge{{U: -9, V: -9}}
	}
}

// TestEmitContract checks the EmitFunc contract from the pattern side: a
// step's slices belong to the sink only during the call. Every pattern
// family runs twice from the same state — once into a sink that only
// deep-copies each step, once into a sink that deep-copies and then
// scribbles over every slice it was handed — and the recorded steps and
// final states must be identical, so no pattern reads back memory it has
// already emitted.
func TestEmitContract(t *testing.T) {
	type run func(st *State, emit EmitFunc, c *PatternCache)
	full := func(f func(*State, arch.Region, EmitFunc)) run {
		return func(st *State, emit EmitFunc, _ *PatternCache) { f(st, arch.FullRegion(st.A), emit) }
	}
	ata := func(st *State, emit EmitFunc, c *PatternCache) {
		if err := ATAWithCache(st, arch.FullRegion(st.A), emit, c); err != nil {
			t.Fatal(err)
		}
	}
	families := []struct {
		name   string
		a      *arch.Arch
		run    run
		cached bool
	}{
		{"line", arch.Line(12), ata, false},
		{"grid/structured", arch.Grid(5, 5), full(GridStructuredATA), false},
		{"grid/snake", arch.Grid(5, 5), full(SnakeATA), false},
		{"grid/dual-uncached", arch.Grid(5, 5), ata, false},
		{"grid/dual-cached", arch.Grid(5, 5), ata, true},
		{"sycamore", arch.Sycamore(4, 4), ata, false},
		{"hexagon", arch.Hexagon(4, 4), ata, false},
		{"heavy-hex", arch.HeavyHex(2, 8), ata, false},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", fam.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(fam.a.N()-1)
				p := graph.Gnp(n, 0.2+0.7*rng.Float64(), rng)
				initial := randomMapping(rng, n, fam.a.N())
				// Cached families run twice on one cache: the first pass
				// misses and replays recorded steps, the second hits.
				var cache, scribbleCache *PatternCache
				passes := 1
				if fam.cached {
					cache, scribbleCache, passes = NewPatternCache(0), NewPatternCache(0), 2
				}
				for pass := 0; pass < passes; pass++ {
					clean, dirty := NewState(fam.a, n, initial, p), NewState(fam.a, n, initial, p)
					var want, got []Step
					fam.run(clean, func(s Step) { want = append(want, copyStep(s)) }, cache)
					fam.run(dirty, func(s Step) {
						got = append(got, copyStep(s))
						scribble(s)
					}, scribbleCache)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("pass %d: scribbling sink changed the emitted steps", pass)
					}
					if !reflect.DeepEqual(clean.L2P, dirty.L2P) || !reflect.DeepEqual(clean.P2L, dirty.P2L) ||
						!reflect.DeepEqual(clean.Want.Edges(), dirty.Want.Edges()) {
						t.Fatalf("pass %d: scribbling sink changed the final state", pass)
					}
					if len(want) == 0 && p.M() > 0 {
						t.Fatalf("pass %d: no steps emitted for %d wanted edges", pass, p.M())
					}
				}
				if fam.cached {
					if s := scribbleCache.Stats(); s.Hits == 0 || s.Misses == 0 {
						t.Fatalf("cached family saw %+v, want both hits and misses", s)
					}
				}
			})
		}
	}
}
