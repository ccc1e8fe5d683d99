package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// submission is one library call the closed loop repeats, with the digest
// its answer must reproduce.
type submission struct {
	class int // row in libSession.names
	dev   *ataqc.Device
	prob  *ataqc.Problem
	opts  ataqc.Options
	want  digest
	qasm  []byte // warm-repeat originals: the set-up compile's QASM
}

// libSession times ataqc.CompileContext calls in a closed loop.
type libSession struct {
	names   []string
	subs    []submission
	order   []int // seeded submission order, walked round-robin
	clients int
	strat   ataqc.Strategy
	inputs  []*problem
	// cache is set for warm-repeat, where every timed call must be a
	// memory-tier hit.
	cache *ataqc.Cache
	dir   string
	fail  *failures
}

// drawProblems returns draws problems per spec, drawn from rng one pass over
// the specs at a time. With several draws, names carry the draw's number.
func drawProblems(specs []spec, draws int, rng *rand.Rand) ([]*problem, error) {
	var out []*problem
	for d := 1; d <= draws; d++ {
		for _, s := range specs {
			p, err := newProblem(s, rng)
			if err != nil {
				return nil, err
			}
			if draws > 1 {
				p.name = fmt.Sprintf("%s/draw-%d", p.name, d)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// compileDraws is how many graphs cold-hybrid and greedy-large draw per
// spec. One graph's compile time varies with the seed, so over eight specs
// the geometric mean moved by 8% (interquartile range over median, ten
// seeds, timed back to back); three draws per spec halve that.
const compileDraws = 3

// setupCompile returns a session over compileDraws submissions per spec,
// each compiled once with strategy to fix the digest the timed calls must
// repeat.
func setupCompile(env *env, specs []spec, strategy ataqc.Strategy) (session, error) {
	rng := rand.New(rand.NewSource(env.seed))
	probs, err := drawProblems(specs, compileDraws, rng)
	if err != nil {
		return nil, err
	}
	s := &libSession{clients: 1, strat: strategy, inputs: probs, fail: env.fail, order: rng.Perm(len(probs))}
	for i, p := range probs {
		dev, prob, opts := p.public(strategy)
		res, err := ataqc.CompileContext(context.Background(), dev, prob, opts)
		if err != nil {
			return nil, fmt.Errorf("set-up compile of %s: %w", p.name, err)
		}
		if err := checkLint(res); err != nil {
			env.fail.add("%s set-up compile: %v", p.name, err)
		}
		s.names = append(s.names, p.name)
		s.subs = append(s.subs, submission{class: i, dev: dev, prob: prob, opts: opts, want: resultDigest(res)})
	}
	return s, nil
}

func setupColdHybrid(env *env) (session, error) {
	return setupCompile(env, coldSpecs, ataqc.StrategyHybrid)
}

func setupGreedyLarge(env *env) (session, error) {
	return setupCompile(env, greedySpecs, ataqc.StrategyGreedy)
}

// relabelsPerProblem is how many isomorphic variants warm-repeat submits
// beside each original problem.
const relabelsPerProblem = 3

// setupWarmRepeat compiles cold-hybrid's problems into a persistent cache,
// restarts the cache, and touches every key, so each timed call is a
// memory-tier hit.
func setupWarmRepeat(env *env) (session, error) {
	rng := rand.New(rand.NewSource(env.seed))
	probs, err := drawProblems(coldSpecs, 1, rng)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.workdir, "warm-")
	if err != nil {
		return nil, err
	}
	s := &libSession{clients: min(2, env.nproc), strat: ataqc.StrategyHybrid, dir: dir, fail: env.fail}
	if s.cache, err = ataqc.OpenCache(dir, 0); err != nil {
		s.close()
		return nil, err
	}
	for i, p := range probs {
		dev, prob, opts := p.public(ataqc.StrategyHybrid)
		opts.Cache = s.cache
		res, err := ataqc.CompileContext(context.Background(), dev, prob, opts)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up compile of %s: %w", p.name, err)
		}
		if err := checkLint(res); err != nil {
			env.fail.add("%s set-up compile: %v", p.name, err)
		}
		var qasm bytes.Buffer
		if err := res.WriteQASM(&qasm); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up QASM of %s: %w", p.name, err)
		}
		s.names = append(s.names, p.name)
		s.subs = append(s.subs, submission{class: i, dev: dev, prob: prob, opts: opts, want: resultDigest(res), qasm: qasm.Bytes()})
	}

	// A simulated restart: every original must now come off disk.
	if err := s.cache.Close(); err != nil {
		s.cache = nil
		s.close()
		return nil, err
	}
	if s.cache, err = ataqc.OpenCache(dir, 0); err != nil {
		s.close()
		return nil, err
	}
	for i := range s.subs {
		sub := &s.subs[i]
		sub.opts.Cache = s.cache
		s.touch(sub, "disk")
	}
	for i, p := range probs {
		for k := 1; k <= relabelsPerProblem; k++ {
			v := p.relabeled(fmt.Sprintf("%s/relabel-%d", p.name, k), rng)
			dev, prob, opts := v.public(ataqc.StrategyHybrid)
			opts.Cache = s.cache
			sub := submission{class: i, dev: dev, prob: prob, opts: opts}
			res := s.touch(&sub, "mem")
			if res == nil {
				continue
			}
			if err := checkLint(res); err != nil {
				env.fail.add("%s: %v", v.name, err)
			}
			sub.want = resultDigest(res)
			s.subs = append(s.subs, sub)
			s.inputs = append(s.inputs, v)
		}
	}
	s.inputs = append(probs, s.inputs...)
	s.order = rng.Perm(len(s.subs))
	return s, nil
}

// touch submits sub once during set-up and checks which cache tier answered;
// it also checks the answer against sub's digest when one is set.
func (s *libSession) touch(sub *submission, tier string) *ataqc.Result {
	res, err := ataqc.CompileContext(context.Background(), sub.dev, sub.prob, sub.opts)
	switch {
	case err != nil:
		s.fail.add("%s: set-up resubmission: %v", s.names[sub.class], err)
		return nil
	case res.CacheTier() != tier:
		s.fail.add("%s: set-up resubmission answered from tier %q, want %q", s.names[sub.class], res.CacheTier(), tier)
	case sub.want != (digest{}) && resultDigest(res) != sub.want:
		s.fail.add("%s: set-up resubmission differs from the first compile", s.names[sub.class])
	}
	return res
}

func (s *libSession) layout() layout           { return layout{classes: s.names} }
func (s *libSession) replayInputs() []*problem { return s.inputs }
func (s *libSession) strategy() ataqc.Strategy { return s.strat }

func (s *libSession) op(i int, tr *tracer) sample {
	sub := &s.subs[i]
	span := tr.span(nil, "op", obs.Str("instance", s.names[sub.class]))
	start := time.Now()
	res, err := ataqc.CompileContext(context.Background(), sub.dev, sub.prob, sub.opts)
	lat := time.Since(start)
	span.End()
	smp := sample{class: sub.class, lat: lat}
	switch {
	case err != nil:
		s.fail.add("%s: %v", s.names[sub.class], err)
	case resultDigest(res) != sub.want:
		s.fail.add("%s: answer differs from its set-up compile", s.names[sub.class])
	case s.cache != nil && res.CacheTier() != "mem":
		s.fail.add("%s: expected a memory-tier hit, got tier %q", s.names[sub.class], res.CacheTier())
	default:
		smp.depth, smp.cx = res.Depth(), res.CXCount()
		tr.compiled(lat, res.Timeline())
		return smp
	}
	smp.failed = true
	return smp
}

func (s *libSession) round(d time.Duration, sp *speedometer, tr *tracer) ([]sample, time.Duration, error) {
	samples, wall := closedLoop(s.clients, d, sp, cyclic(s.order), func(i int) sample { return s.op(i, tr) })
	if s.cache != nil {
		s.checkBytes()
	}
	return samples, wall, nil
}

// checkBytes resubmits every original problem, outside the timed window, and
// requires the hit to carry the set-up compile's exact QASM.
func (s *libSession) checkBytes() {
	for i := range s.subs {
		sub := &s.subs[i]
		if sub.qasm == nil {
			continue
		}
		res := s.touch(sub, "mem")
		if res == nil {
			continue
		}
		var qasm bytes.Buffer
		if err := res.WriteQASM(&qasm); err != nil || !bytes.Equal(qasm.Bytes(), sub.qasm) {
			s.fail.add("%s: cached QASM is not byte-identical to the set-up compile's", s.names[sub.class])
		}
	}
}

func (s *libSession) counters() map[string]float64 {
	if s.cache == nil {
		return nil
	}
	return cacheCounters(s.cache.Stats())
}

func (s *libSession) close() {
	if s.cache != nil {
		if err := s.cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close cache: %v\n", err)
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// cacheCounters names a compilation cache's counters as per-layer metrics.
func cacheCounters(st ataqc.CacheStats) map[string]float64 {
	return map[string]float64{
		"cachestore.mem_hits":   float64(st.MemHits),
		"cachestore.disk_hits":  float64(st.DiskHits),
		"cachestore.misses":     float64(st.Misses),
		"cachestore.corrupt":    float64(st.Corrupt),
		"cachestore.disk_bytes": float64(st.DiskBytes),
	}
}
