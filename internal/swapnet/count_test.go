package swapnet

import (
	"math"
	"math/rand"
	"reflect"
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

// lineCase is one input of the counted-versus-simulated line comparison:
// disjoint lines run in lockstep over a device of lines plus a few
// qubits off them, a partial mapping (empty slots) and a random want set.
type lineCase struct {
	a           *arch.Arch
	n           int
	p           *graph.Graph
	initial     []int
	lines       [][]int
	scopeQubits []int // the caller scope's qubits; nil builds the run's own
	unwant      bool  // drop the caller scope's first pair from the want set
	opts        linearOpts
	base        float64
	wCycles     float64
	wCX         float64
	frac        float64 // the limit is base + frac * the uncut run's increment
	maxCycles   int     // the pricer's cycle cap (< 0: none)
}

// lineCaseOf derives a comparison input: shape picks the number of lines
// (1-4), the rounds override, preserveDynamics and a caller scope, which
// may miss wanted pairs on the lines or hold one that is not wanted; lines
// are 2 to 2+maxLen%63 qubits long.
func lineCaseOf(seed int64, shape, maxLen uint8, density, frac float64) lineCase {
	rng := rand.New(rand.NewSource(seed))
	longest := 2 + int(maxLen)%63
	lens := make([]int, 1+int(shape)%4)
	total := rng.Intn(4) // qubits off the lines
	for i := range lens {
		lens[i] = 2 + rng.Intn(longest-1)
		total += lens[i]
	}
	perm := rng.Perm(total)
	c := lineCase{a: arch.Line(total), maxCycles: -1}
	at := 0
	for _, l := range lens {
		c.lines = append(c.lines, perm[at:at+l])
		at += l
	}
	c.n = 2 + rng.Intn(total-1)
	if rng.Intn(3) == 0 {
		c.n = total
	}
	if math.IsNaN(density) || density < 0.02 || density > 1 {
		density = 0.02 + rng.Float64()*0.98
	}
	c.p = graph.Gnp(c.n, density, rng)
	c.initial = randomMapping(rng, c.n, total)
	if shape&4 != 0 {
		c.opts.rounds = 1 + rng.Intn(2*longest+2)
	}
	c.opts.preserveDynamics = shape&8 != 0
	if shape&16 != 0 {
		// Usually every line qubit and some off them; else any stretch.
		lo, hi := 0, at+rng.Intn(total-at+1)
		if rng.Intn(4) == 0 {
			lo, hi = rng.Intn(total), 1+rng.Intn(total)
		}
		c.scopeQubits = perm[min(lo, hi):max(lo, hi)]
		c.unwant = rng.Intn(4) == 0
	}
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = rng.Float64()
	}
	c.frac = math.Mod(math.Abs(frac), 1.3)
	c.base, c.wCycles, c.wCX = rng.Float64(), rng.Float64(), 0.3*rng.Float64()
	if rng.Intn(4) == 0 {
		c.maxCycles = rng.Intn(2 * longest)
	}
	return c
}

// lineOutcome is what a run of a lineCase leaves: the sink's running pass,
// its folds and whether it stopped the State; through a pricer, the
// pricer's counts, loss and shadow cost; and, for a run the sink did not
// stop, the placement, want set and caller scope.
type lineOutcome struct {
	cur      sums
	folds    int
	stopped  bool
	priced   sums
	steps    int
	lost     bool
	cost     float64
	l2p, p2l []int
	want     []graph.Edge
	scope    []graph.Edge
}

// runLine runs c's lines once, counted (the State has a Rounds sink) or
// simulated, directly into the sink or on a grid dual candidate's priced
// copy whose shadow the sink then takes.
func runLine(c lineCase, counted, viaPricer bool) lineOutcome {
	st := NewState(c.a, c.n, c.initial, c.p)
	sink := &priceSink{st: st, base: c.base, wCycles: c.wCycles, wCX: c.wCX}
	var ref Counter
	linear(NewState(c.a, c.n, c.initial, c.p), c.lines, c.opts, ref.Emit)
	sink.limit = c.base + c.frac*(sink.cost(sums{ref.Cycles, ref.CX})-c.base)
	if counted {
		st.Rounds = sink
	}
	var out lineOutcome
	run := func(s *State, emit EmitFunc) *scope {
		opts := c.opts
		if c.scopeQubits != nil {
			opts.sc = newScope(s, c.scopeQubits)
			if e, _, ok := opts.sc.rel.next(0); ok && c.unwant {
				s.Want.Remove(e)
			}
		}
		linear(s, c.lines, opts, emit)
		return opts.sc
	}
	var sc *scope
	if viaPricer {
		st.Bound = sink
		f, r := st.priced(1, sink, c.maxCycles)
		sc = run(f, r.emit)
		out.priced, out.steps = sums{r.c.Cycles, r.c.CX}, r.c.Steps
		out.lost, out.cost = r.lost, r.cost
		if f.stopped && !r.lost {
			// Stopped by the cycle cap: the grid dual never takes it.
			out.stopped = true
			return out
		}
		st.take(f, r)
	} else {
		sc = run(st, sink.emit)
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

// checkCountedLine compares the counted and the simulated run of c, both
// directly and through a pricer, and reports whether the sink stopped
// the direct run and whether the direct run exhausted a scope early.
func checkCountedLine(t *testing.T, c lineCase) (cut, early bool) {
	t.Helper()
	for _, viaPricer := range []bool{false, true} {
		sim, cnt := runLine(c, false, viaPricer), runLine(c, true, viaPricer)
		if !reflect.DeepEqual(sim, cnt) {
			t.Fatalf("lines %v rounds %d preserve %v scope %v pricer %v:\nsimulated %+v\ncounted   %+v",
				lineLens(c.lines), c.opts.rounds, c.opts.preserveDynamics, c.scopeQubits != nil, viaPricer, sim, cnt)
		}
		if !viaPricer {
			cut, early = sim.stopped, !sim.stopped && sim.cur.cycles+1 < swappingRounds(c)
		}
	}
	return cut, early
}

func lineLens(lines [][]int) []int {
	var out []int
	for _, ln := range lines {
		out = append(out, len(ln))
	}
	return out
}

// swappingRounds counts the rounds of c that have pairs: every even one,
// and the odd ones when a line is longer than 2.
func swappingRounds(c lineCase) int {
	rounds, odd := c.opts.rounds, false
	for _, ln := range c.lines {
		if c.opts.rounds == 0 {
			rounds = max(rounds, len(ln))
		}
		odd = odd || len(ln) > 2
	}
	if odd {
		return rounds
	}
	return (rounds + 1) / 2
}

// TestCountedLineMatchesSimulated runs the comparison over random shapes,
// want sets and limits, and checks that it sees cut runs, uncut runs and
// runs whose scope empties early.
func TestCountedLineMatchesSimulated(t *testing.T) {
	var cuts, uncut, early int
	for i := 0; i < 1500; i++ {
		c := lineCaseOf(int64(i), uint8(i*7), uint8(i*13), 0, float64(i%13)/10)
		cut, e := checkCountedLine(t, c)
		switch {
		case cut:
			cuts++
		case e:
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
		checkCountedLine(t, lineCaseOf(seed, shape, maxLen, density, frac))
	})
}
