package swapnet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// limitSink is a cutting sink with a Bound, shaped like the hybrid
// compiler's predictor: its running total starts at base and adds each
// step's weighted cycles and CX, and it stops the State at the first step
// where the total reaches limit. As the State's Bound it prices the grid
// dual's candidates in shadow with the same additions, keeping the steps
// each shadow priced, and Take counts a shadow's steps as emitted, so
// steps holds every step the sink's total stands for.
type limitSink struct {
	st           *State
	wCycles, wCX float64
	limit        float64
	cur          float64
	shadow       [2]float64
	priced       [2][]Step
	steps        []Step
}

func (b *limitSink) price(s Step) float64 {
	var c Counter
	c.Emit(s)
	return b.wCycles*float64(c.Cycles) + b.wCX*float64(c.CX)
}

func (b *limitSink) Reset(k int) { b.shadow[k], b.priced[k] = b.cur, nil }

func (b *limitSink) Add(k int, s Step) (float64, bool) {
	b.priced[k] = append(b.priced[k], copyStep(s))
	b.shadow[k] += b.price(s)
	return b.shadow[k], b.shadow[k] >= b.limit
}

func (b *limitSink) Take(k int) {
	b.cur = b.shadow[k]
	b.steps = append(b.steps, b.priced[k]...)
}

func (b *limitSink) emit(s Step) {
	b.steps = append(b.steps, copyStep(s))
	b.cur += b.price(s)
	if b.cur >= b.limit {
		b.st.Stop()
	}
}

// boundCase is one input of the bounded-versus-unbounded dual comparison.
type boundCase struct {
	a            *arch.Arch
	n            int
	p            *graph.Graph
	initial      []int
	region       arch.Region
	base         float64
	wCycles, wCX float64
	frac         float64 // the limit is base + frac * the largest candidate increment
}

// boundCaseOf derives a comparison input on a grid or 3D lattice device.
func boundCaseOf(family, size uint8, density, frac float64, seed int64) boundCase {
	rng := rand.New(rand.NewSource(seed))
	var a *arch.Arch
	switch family % 3 {
	case 0:
		a = arch.Grid(3+int(size)%5, 3+int(size/5)%5)
	case 1:
		a = arch.GridN(16 + int(size)%40)
	default:
		a = arch.Lattice3D(2+int(size)%2, 3, 3)
	}
	if math.IsNaN(density) || density < 0.05 || density > 1 {
		density = 0.05 + rng.Float64()*0.9
	}
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = rng.Float64()
	}
	n := 2 + rng.Intn(a.N()-1)
	c := boundCase{
		a: a, n: n, p: graph.Gnp(n, density, rng), initial: randomMapping(rng, n, a.N()),
		region: arch.FullRegion(a), base: rng.Float64(),
		wCycles: rng.Float64(), wCX: 0.3 * rng.Float64(), frac: math.Mod(math.Abs(frac), 1.3),
	}
	// Small regions leave wanted edges outside, where the structured
	// pattern cannot reach them and the snake may leave the region.
	switch rng.Intn(3) {
	case 1:
		c.region = randomRegion(rng, a)
	case 2:
		c.region = arch.EnclosingRegion(a, rng.Perm(a.N())[:2+rng.Intn(3)])
	}
	return c
}

// boundOutcome says which way one comparison went.
type boundOutcome int

const (
	boundUncut boundOutcome = iota
	boundCutSnake
	boundCutStructured
	boundCutEither // the emitted prefix is common to both candidates
)

// checkBoundedDual runs c's region under a limitSink Bound and compares it
// with the unbounded ATA and with each candidate's full run:
//
//   - the sink stops exactly when the unbounded run's total reaches the
//     limit at one of its steps;
//   - if it never stops, the emitted steps and final state equal the
//     unbounded run's;
//   - if it stops, the emitted steps are a prefix of one candidate's full
//     run whose running total first reaches the limit at its last step,
//     and the total at the stop is at most the unbounded run's.
func checkBoundedDual(t *testing.T, c boundCase, cache *PatternCache) boundOutcome {
	t.Helper()
	collect := func(run func(*State, EmitFunc)) ([]Step, *State) {
		st := NewState(c.a, c.n, c.initial, c.p)
		var steps []Step
		run(st, func(s Step) { steps = append(steps, copyStep(s)) })
		return steps, st
	}
	sink := &limitSink{wCycles: c.wCycles, wCX: c.wCX, cur: c.base}
	total := func(steps []Step) float64 {
		f := c.base
		for _, s := range steps {
			f += sink.price(s)
		}
		return f
	}
	ref, refSt := collect(func(st *State, emit EmitFunc) {
		if err := ATA(st, c.region, emit); err != nil {
			t.Fatal(err)
		}
	})
	var snake, structured []Step
	if c.a.Kind == arch.KindGrid {
		snake, _ = collect(func(st *State, emit EmitFunc) { SnakeATA(st, c.region, emit) })
		structured, _ = collect(func(st *State, emit EmitFunc) { GridStructuredATA(st, c.region, emit) })
	} else {
		snake = ref
	}
	sink.limit = c.base + c.frac*(max(total(snake), total(structured), total(ref))-c.base)
	st := NewState(c.a, c.n, c.initial, c.p)
	sink.st, st.Bound = st, sink
	if err := ATAWithCache(st, c.region, sink.emit, cache); err != nil {
		t.Fatal(err)
	}
	refTotal := total(ref)
	if st.Stopped() != (len(ref) > 0 && refTotal >= sink.limit) {
		t.Fatalf("%s: stopped=%v, but the unbounded run totals %v against limit %v", c.a.Name, st.Stopped(), refTotal, sink.limit)
	}
	if !st.Stopped() {
		if !reflect.DeepEqual(sink.steps, ref) {
			t.Fatalf("%s: uncut bounded dual emitted %d steps, unbounded %d, or they differ", c.a.Name, len(sink.steps), len(ref))
		}
		if !reflect.DeepEqual(st.L2P, refSt.L2P) || !reflect.DeepEqual(st.Want.Edges(), refSt.Want.Edges()) {
			t.Fatalf("%s: uncut bounded dual's final state differs from the unbounded run's", c.a.Name)
		}
		return boundUncut
	}
	k := len(sink.steps)
	isCut := func(run []Step) bool {
		if k == 0 || k > len(run) || !reflect.DeepEqual(sink.steps, run[:k]) {
			return false
		}
		return total(run[:k]) >= sink.limit && (k == 1 || total(run[:k-1]) < sink.limit)
	}
	onSnake, onStructured := isCut(snake), c.a.Kind == arch.KindGrid && isCut(structured)
	if !onSnake && !onStructured {
		t.Fatalf("%s: cut after %d steps, not at the first loss of either candidate's run", c.a.Name, k)
	}
	if sink.cur > refTotal {
		t.Fatalf("%s: cut at %v, above the unbounded total %v", c.a.Name, sink.cur, refTotal)
	}
	switch {
	case onSnake && onStructured:
		return boundCutEither
	case onSnake:
		return boundCutSnake
	}
	return boundCutStructured
}

// TestBoundedDualMatchesUnbounded compares the bounded grid dual with the
// unbounded one over random grid and 3D-lattice inputs and limits, with
// and without a pattern cache, and checks that uncut runs and cuts on
// each candidate all occur.
func TestBoundedDualMatchesUnbounded(t *testing.T) {
	var seen [4]int
	cache := NewPatternCache(0)
	for i := 0; i < 400; i++ {
		c := boundCaseOf(uint8(i%3), uint8(i*7), 0, float64(i%13)/10, int64(i))
		for _, pc := range []*PatternCache{nil, cache} {
			seen[checkBoundedDual(t, c, pc)]++
		}
	}
	t.Logf("uncut %d, cut on the snake %d, on the structured pattern %d, on a common prefix %d",
		seen[boundUncut], seen[boundCutSnake], seen[boundCutStructured], seen[boundCutEither])
	if seen[boundUncut] == 0 || seen[boundCutSnake] == 0 || seen[boundCutStructured] == 0 {
		t.Fatalf("outcomes %v: the comparison exercised too little", seen)
	}
}

// FuzzBoundedDualMatchesUnbounded is the comparison over fuzzed inputs.
func FuzzBoundedDualMatchesUnbounded(f *testing.F) {
	f.Add(uint8(0), uint8(9), 0.5, 0.5, int64(1))
	f.Add(uint8(1), uint8(30), 0.3, 0.9, int64(2))
	f.Add(uint8(2), uint8(1), 0.7, 0.2, int64(3))
	f.Add(uint8(1), uint8(48), 0.1, 1.1, int64(4))
	f.Fuzz(func(t *testing.T, family, size uint8, density, frac float64, seed int64) {
		checkBoundedDual(t, boundCaseOf(family, size, density, frac, seed), nil)
	})
}
