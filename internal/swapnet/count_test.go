package swapnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// sums are a pass's cycles and CX.
type sums struct{ cycles, cx int }

// priceSink is a noise-free sink shaped like the hybrid compiler's
// predictor: a pass costs base + wCycles*cycles + wCX*cx and loses once
// that reaches limit, and the sink stops its State at the first step (or
// counted round) where its running pass loses. As a Bound it prices the
// grid dual's shadows with the same additions, and as a RoundSink it takes
// counted rounds as steps of one cycle. folds counts the steps and rounds
// folded into the running pass, and a taken shadow's count with them.
type priceSink struct {
	st                        *State
	base, wCycles, wCX, limit float64
	cur                       sums
	shadow                    [2]sums
	folds                     int
	shadowFolds               [2]int
}

func (p *priceSink) cost(s sums) float64 {
	return p.base + p.wCycles*float64(s.cycles) + p.wCX*float64(s.cx)
}

func (p *priceSink) fold(s *sums, cycles, cx int) (float64, bool) {
	s.cycles += cycles
	s.cx += cx
	f := p.cost(*s)
	return f, f >= p.limit
}

func (p *priceSink) Reset(k int) { p.shadow[k], p.shadowFolds[k] = p.cur, 0 }

func (p *priceSink) Add(k int, s Step) (float64, bool) {
	var c Counter
	c.Emit(s)
	p.shadowFolds[k]++
	return p.fold(&p.shadow[k], c.Cycles, c.CX)
}

func (p *priceSink) Take(k int) {
	p.cur = p.shadow[k]
	p.folds += p.shadowFolds[k]
}

func (p *priceSink) AddRound(k, cx int) (float64, bool) {
	if k >= 0 {
		p.shadowFolds[k]++
		return p.fold(&p.shadow[k], 1, cx)
	}
	p.folds++
	return p.fold(&p.cur, 1, cx)
}

func (p *priceSink) emit(s Step) {
	var c Counter
	c.Emit(s)
	p.folds++
	if _, lost := p.fold(&p.cur, c.Cycles, c.CX); lost {
		p.st.Stop()
	}
}

// countCase is one input of a counted-versus-simulated comparison: a
// pattern run over a device with a partial mapping (empty slots) and a
// random want set, priced against a limit.
type countCase struct {
	desc    string
	a       *arch.Arch
	n       int
	p       *graph.Graph
	initial []int
	// run runs the pattern on s into emit and returns its caller scope
	// (nil when the pattern builds its own); ref is the run that scales
	// the limit (nil: run).
	run       func(s *State, emit EmitFunc) *scope
	ref       func(s *State, emit EmitFunc)
	base      float64
	wCycles   float64
	wCX       float64
	frac      float64 // the limit is base + frac * ref's increment
	maxCycles int     // the pricer's cycle cap (< 0: none)
}

// priceOf draws the case's cost weights, limit fraction and pricer cycle
// cap (below capBelow when there is one).
func (c *countCase) priceOf(rng *rand.Rand, frac float64, capBelow int) {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = rng.Float64()
	}
	c.frac = math.Mod(math.Abs(frac), 1.3)
	c.base, c.wCycles, c.wCX = rng.Float64(), rng.Float64(), 0.3*rng.Float64()
	c.maxCycles = -1
	if rng.Intn(4) == 0 {
		c.maxCycles = rng.Intn(capBelow)
	}
}

// callerScope builds a caller scope over qubits on s, dropping its first
// pair from the want set when unwant is set.
func callerScope(s *State, qubits []int, unwant bool) *scope {
	sc := newScope(s, qubits)
	if e, _, ok := sc.rel.next(0); ok && unwant {
		s.Want.Remove(e)
	}
	return sc
}

// density draws a want density when the fuzzed one is out of range.
func density(rng *rand.Rand, d float64) float64 {
	if math.IsNaN(d) || d < 0.02 || d > 1 {
		return 0.02 + rng.Float64()*0.98
	}
	return d
}

// lineCaseOf derives a line comparison input: disjoint lines run in
// lockstep over a device of lines plus a few qubits off them. shape picks
// the number of lines (1-4), the rounds override, preserveDynamics and a
// caller scope, which may miss wanted pairs on the lines or hold one that
// is not wanted; lines are 2 to 2+maxLen%63 qubits long.
func lineCaseOf(seed int64, shape, maxLen uint8, dens, frac float64) (c countCase, swapping int) {
	rng := rand.New(rand.NewSource(seed))
	longest := 2 + int(maxLen)%63
	lens := make([]int, 1+int(shape)%4)
	total := rng.Intn(4) // qubits off the lines
	for i := range lens {
		lens[i] = 2 + rng.Intn(longest-1)
		total += lens[i]
	}
	perm := rng.Perm(total)
	c.a = arch.Line(total)
	var lines [][]int
	at := 0
	for _, l := range lens {
		lines = append(lines, perm[at:at+l])
		at += l
	}
	c.n = 2 + rng.Intn(total-1)
	if rng.Intn(3) == 0 {
		c.n = total
	}
	c.p = graph.Gnp(c.n, density(rng, dens), rng)
	c.initial = randomMapping(rng, c.n, total)
	var opts linearOpts
	if shape&4 != 0 {
		opts.rounds = 1 + rng.Intn(2*longest+2)
	}
	opts.preserveDynamics = shape&8 != 0
	var scopeQubits []int // nil: the run builds its own scope
	unwant := false
	if shape&16 != 0 {
		// Usually every line qubit and some off them; else any stretch.
		lo, hi := 0, at+rng.Intn(total-at+1)
		if rng.Intn(4) == 0 {
			lo, hi = rng.Intn(total), 1+rng.Intn(total)
		}
		scopeQubits = perm[min(lo, hi):max(lo, hi)]
		unwant = rng.Intn(4) == 0
	}
	c.priceOf(rng, frac, 2*longest)
	c.desc = fmt.Sprintf("lines %v rounds %d preserve %v scope %v", lineLens(lines), opts.rounds, opts.preserveDynamics, scopeQubits != nil)
	c.run = func(s *State, emit EmitFunc) *scope {
		o := opts
		if scopeQubits != nil {
			o.sc = callerScope(s, scopeQubits, unwant)
		}
		linear(s, lines, o, emit)
		return o.sc
	}
	c.ref = func(s *State, emit EmitFunc) { linear(s, lines, opts, emit) }
	// swapping counts the rounds that have pairs: every even one, and the
	// odd ones when a line is longer than 2; a scope that empties before
	// the last of them empties early.
	swapping = opts.rounds
	if swapping == 0 {
		swapping = slices.Max(lens)
	}
	if slices.Max(lens) <= 2 {
		swapping = (swapping + 1) / 2
	}
	return c, swapping
}

// gridCaseOf derives a grid comparison input: a grid of 2x2 to 12x12 and
// a random rectangular region of it. shape&1 runs the whole structured
// pattern over the region (gridATA); otherwise one bipartite phase of its
// rows, of the parity shape&2 picks, under a caller scope over a random
// stretch of the device's qubits, which may hold a pair that is not
// wanted.
func gridCaseOf(seed int64, shape, size uint8, dens, frac float64) countCase {
	rng := rand.New(rand.NewSource(seed))
	rows, cols := 2+int(size)%11, 2+int(size/11)%11
	c := countCase{a: arch.Grid(rows, cols)}
	total := rows * cols
	u0, u1 := rng.Intn(rows), rng.Intn(rows)
	p0, p1 := rng.Intn(cols), rng.Intn(cols)
	region := NormalizeRegion(c.a, arch.Region{U0: min(u0, u1), U1: max(u0, u1), P0: min(p0, p1), P1: max(p0, p1)})
	c.n = 2 + rng.Intn(total-1)
	if rng.Intn(3) == 0 {
		c.n = total
	}
	c.p = graph.Gnp(c.n, density(rng, dens), rng)
	c.initial = randomMapping(rng, c.n, total)
	c.priceOf(rng, frac, 2*total)
	if shape&1 != 0 {
		c.desc = fmt.Sprintf("grid %dx%d region %+v", rows, cols, region)
		c.run = func(s *State, emit EmitFunc) *scope {
			gridATA(s, region, emit, nil)
			return nil
		}
		return c
	}
	units := regionUnits(c.a, region)
	var pairs [][2]int
	for u := int(shape>>1) % 2; u+1 < len(units); u += 2 {
		pairs = append(pairs, [2]int{u, u + 1})
	}
	if len(pairs) == 0 {
		pairs = [][2]int{{0, 1}}
		if len(units) < 2 {
			units = c.a.Units[:2] // a single-row region: take two whole rows
		}
	}
	perm := rng.Perm(total)
	lo, hi := rng.Intn(total), 1+rng.Intn(total)
	qubits := perm[min(lo, hi):max(lo, hi)]
	unwant := rng.Intn(4) == 0
	c.desc = fmt.Sprintf("grid %dx%d phase rows %d pairs %v scope %d unwant %v", rows, cols, len(units), pairs, len(qubits), unwant)
	c.run = func(s *State, emit EmitFunc) *scope {
		sc := callerScope(s, qubits, unwant)
		if sc.done() {
			return sc // gridATA never starts a phase on an empty scope
		}
		if s.Rounds != nil {
			s.countBipartite(units, pairs, sc)
		} else {
			bipartiteGrid(s, units, pairs, sc, emit)
		}
		return sc
	}
	return c
}

// outcome is what a run of a countCase leaves: the sink's running pass,
// its folds and whether it stopped the State; through a pricer, the
// pricer's counts, loss and shadow cost bits; and, for a run the sink did
// not stop, the placement, want set and caller scope.
type outcome struct {
	cur      sums
	folds    int
	stopped  bool
	priced   sums
	steps    int
	lost     bool
	cost     uint64
	l2p, p2l []int
	want     []graph.Edge
	scope    []graph.Edge
}

// runCase runs c once, counted (the State has a Rounds sink) or
// simulated, directly into the sink or on a grid dual candidate's priced
// copy whose shadow the sink then takes.
func runCase(c countCase, counted, viaPricer bool) outcome {
	st := NewState(c.a, c.n, c.initial, c.p)
	sink := &priceSink{st: st, base: c.base, wCycles: c.wCycles, wCX: c.wCX}
	var ref Counter
	if c.ref != nil {
		c.ref(NewState(c.a, c.n, c.initial, c.p), ref.Emit)
	} else {
		c.run(NewState(c.a, c.n, c.initial, c.p), ref.Emit)
	}
	sink.limit = c.base + c.frac*(sink.cost(sums{ref.Cycles, ref.CX})-c.base)
	if counted {
		st.Rounds = sink
	}
	var out outcome
	var sc *scope
	if viaPricer {
		st.Bound = sink
		f, r := st.priced(1, sink, c.maxCycles)
		sc = c.run(f, r.emit)
		out.priced, out.steps = sums{r.c.Cycles, r.c.CX}, r.c.Steps
		out.lost, out.cost = r.lost, math.Float64bits(r.cost)
		if f.stopped && !r.lost {
			// Stopped by the cycle cap: the grid dual never takes it.
			out.stopped = true
			return out
		}
		st.take(f, r)
	} else {
		sc = c.run(st, sink.emit)
	}
	out.cur, out.folds, out.stopped = sink.cur, sink.folds, st.Stopped()
	if !out.stopped {
		out.l2p, out.p2l, out.want = st.L2P, st.P2L, st.Want.Edges()
		if sc != nil {
			out.scope = sc.rel.Edges()
		}
	}
	return out
}

// checkCounted compares the counted and the simulated run of c, both
// directly and through a pricer, and returns the direct run's outcome
// and whether the priced run hit the cycle cap.
func checkCounted(t *testing.T, c countCase) (direct outcome, capped bool) {
	t.Helper()
	for _, viaPricer := range []bool{false, true} {
		sim, cnt := runCase(c, false, viaPricer), runCase(c, true, viaPricer)
		if !reflect.DeepEqual(sim, cnt) {
			t.Fatalf("%s pricer %v:\nsimulated %+v\ncounted   %+v", c.desc, viaPricer, sim, cnt)
		}
		if viaPricer {
			capped = sim.stopped && !sim.lost
		} else {
			direct = sim
		}
	}
	return direct, capped
}

func lineLens(lines [][]int) []int {
	var out []int
	for _, ln := range lines {
		out = append(out, len(ln))
	}
	return out
}

// TestCountedLineMatchesSimulated runs the comparison over random shapes,
// want sets and limits, and checks that it sees cut runs, uncut runs and
// runs whose scope empties early.
func TestCountedLineMatchesSimulated(t *testing.T) {
	var cuts, uncut, early int
	for i := 0; i < 1500; i++ {
		c, swapping := lineCaseOf(int64(i), uint8(i*7), uint8(i*13), 0, float64(i%13)/10)
		out, _ := checkCounted(t, c)
		switch {
		case out.stopped:
			cuts++
		case out.cur.cycles+1 < swapping:
			early++
			uncut++
		default:
			uncut++
		}
	}
	t.Logf("cut %d, uncut %d (scope emptied early %d)", cuts, uncut, early)
	if cuts == 0 || uncut == 0 || early == 0 {
		t.Fatalf("cut %d, uncut %d, early %d: the comparison exercised too little", cuts, uncut, early)
	}
}

// FuzzCountedLineMatchesSimulated is the comparison over fuzzed inputs.
func FuzzCountedLineMatchesSimulated(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(6), 0.5, 0.5)
	f.Add(int64(2), uint8(31), uint8(62), 0.1, 0.9)
	f.Add(int64(3), uint8(13), uint8(20), 0.9, 1.2)
	f.Add(int64(4), uint8(26), uint8(1), 0.3, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, shape, maxLen uint8, density, frac float64) {
		c, _ := lineCaseOf(seed, shape, maxLen, density, frac)
		checkCounted(t, c)
	})
}

// TestCountedGridMatchesSimulated runs the comparison over random grids,
// regions, want sets and limits, and checks that it sees cut and uncut
// runs of whole patterns and of single phases, runs the pricer's cycle
// cap stopped, and phases whose caller scope emptied.
func TestCountedGridMatchesSimulated(t *testing.T) {
	var cuts, uncut, capped, emptied [2]int // by shape&1: phase, whole
	for i := 0; i < 1500; i++ {
		shape := uint8(i * 7)
		out, cap := checkCounted(t, gridCaseOf(int64(i), shape, uint8(i*13), 0, float64(i%13)/10))
		w := int(shape & 1)
		switch {
		case out.stopped:
			cuts[w]++
		case out.scope != nil && len(out.scope) == 0:
			emptied[w]++
			uncut[w]++
		default:
			uncut[w]++
		}
		if cap {
			capped[w]++
		}
	}
	t.Logf("phase: cut %d, uncut %d (scope emptied %d), capped %d; whole: cut %d, uncut %d, capped %d",
		cuts[0], uncut[0], emptied[0], capped[0], cuts[1], uncut[1], capped[1])
	for w := range 2 {
		if cuts[w] == 0 || uncut[w] == 0 || capped[w] == 0 || (w == 0 && emptied[w] == 0) {
			t.Fatalf("cut %v, uncut %v, capped %v, emptied %v: the comparison exercised too little", cuts, uncut, capped, emptied)
		}
	}
}

// FuzzCountedGridMatchesSimulated is the grid comparison over fuzzed
// inputs.
func FuzzCountedGridMatchesSimulated(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), 0.5, 0.5)
	f.Add(int64(2), uint8(0), uint8(120), 0.1, 0.9)
	f.Add(int64(3), uint8(3), uint8(40), 0.9, 1.2)
	f.Add(int64(4), uint8(2), uint8(77), 0.3, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, shape, size uint8, density, frac float64) {
		checkCounted(t, gridCaseOf(seed, shape, size, density, frac))
	})
}
