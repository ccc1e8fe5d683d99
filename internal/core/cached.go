package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
	"github.com/ata-pattern/ataqc/internal/swapnet"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// Cache is the compilation cache CompileCached consults: a two-tier
// (memory + optional disk) result store keyed by canonical problem
// identity, plus an in-process pattern cache shared across every compile
// it serves. Only results persist: pattern geometry is a cheap function
// of the architecture and region bounds, so it is recomputed on first
// use rather than stored.
//
// The correctness contract, in two parts:
//
//   - Identity. A result entry is keyed by (architecture fingerprint,
//     canonical problem-graph hash, options digest). The canonical hash
//     covers the full canonical edge list, so two requests share an
//     entry only when their problem graphs are isomorphic and their
//     semantically relevant options match. The stored record lives in
//     the problem's CANONICAL frame; every hit is translated back
//     through the requesting graph's own canonical permutation, so a
//     relabeled resubmission gets a circuit valid for ITS labeling.
//     For a byte-identical resubmission the translation is the exact
//     inverse of the one applied at store time: the served result is
//     byte-for-byte the one a fresh compile would produce.
//
//   - Trust. Cache entries are inputs, not gospel: every hit is
//     rehydrated defensively (bounds-checked) and must pass the same
//     error-severity verifier pass a fresh compile must pass. Any
//     decode or verification failure counts as a corruption and falls
//     through to a fresh compile — a damaged cache can cost time,
//     never correctness.
type Cache struct {
	store    *cachestore.Tiered
	patterns *swapnet.PatternCache
	corrupt  atomic.Int64
	putFails atomic.Int64
	giveups  atomic.Int64
}

// NewCache wraps a tiered result store (nil = no result caching, the
// pattern cache still warms across compiles) with a fresh shared pattern
// cache.
func NewCache(store *cachestore.Tiered) *Cache {
	return &Cache{store: store, patterns: swapnet.NewPatternCache(0)}
}

// Close closes the underlying disk store, if any.
func (c *Cache) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// CacheStats snapshots every layer of a compilation cache.
type CacheStats struct {
	// Result is the two-tier result store's counters.
	Result cachestore.TieredStats
	// Corrupt counts served entries rejected at rehydration or
	// verification (the disk store's own checksum rejections are counted
	// in Result.Disk.Corrupt).
	Corrupt int64
	// PutFailures counts results that could not be persisted to disk
	// (the memory tier still accepted them).
	PutFailures int64
	// CanonGiveups counts requests whose canonical form gave up on the
	// context or the work budget and keyed the lookup by a
	// labeling-dependent fallback certificate (sound, but isomorphic
	// resubmissions may miss).
	CanonGiveups int64
	// Patterns is the shared pattern cache's counters.
	Patterns swapnet.CacheStats
}

// Stats snapshots the cache.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Corrupt:      c.corrupt.Load(),
		PutFailures:  c.putFails.Load(),
		CanonGiveups: c.giveups.Load(),
		Patterns:     c.patterns.Stats(),
	}
	if c.store != nil {
		s.Result = c.store.Stats()
	}
	return s
}

// CompileCached is CompileContext through a compilation cache. On a hit
// the stored circuit is translated into the request's frame, strictly
// verified, and returned with Stats.CacheTier naming the tier that
// answered; on a miss it compiles (sharing the cache's pattern cache
// across the prediction and materialisation engines) and persists the
// result.
//
// Bypasses — requests that go straight to CompileContext, uncached:
//
//   - nil cache;
//   - an explicit Options.InitialMapping (the mapping is an input the
//     canonical problem hash does not cover);
//
// and Degraded results are never stored: which degradation rung answered
// depends on wall-clock and load, not on the problem, so caching one
// would replay an unlucky compile forever.
func CompileCached(ctx context.Context, a *arch.Arch, problem *graph.Graph, opts Options, cache *Cache) (*Result, error) {
	if cache == nil || opts.InitialMapping != nil {
		return CompileContext(ctx, a, problem, opts)
	}
	opts.applyDefaults()
	opts.PatternCache = cache.patterns
	if cache.store == nil {
		return CompileContext(ctx, a, problem, opts)
	}

	rec := newRecorder(opts.Trace)
	start := rec.clock.Now()
	perm, hash, complete := graph.CanonicalFormContext(ctx, problem)
	if !complete {
		cache.giveups.Add(1)
	}
	key := cachestore.ResultKey(a.Fingerprint(), hash, optionsDigest(a, &opts))

	if payload, tier, ok := cache.store.Get(key); ok {
		res, err := rehydrate(payload, perm, a, problem, opts)
		if err == nil {
			res.Stats.CacheTier = string(tier)
			elapsed := rec.clock.Now().Sub(start)
			res.Stats.Elapsed = elapsed
			res.Metrics.CompileTime = elapsed
			return res, nil
		}
		cache.corrupt.Add(1)
		// Fall through: a damaged or stale entry is a miss, never an error.
	}

	res, err := CompileContext(ctx, a, problem, opts)
	if err != nil || res.Degraded {
		return res, err
	}
	if putErr := cache.store.Put(key, cachestore.EncodeResult(toCanonicalRecord(res, perm, problem.N()))); putErr != nil {
		cache.putFails.Add(1)
	}
	return res, err
}

// optionsDigest hashes the options that change the compiled circuit.
// Budget and observability knobs — Deadline, MaxNodes, Workers, Verify,
// Trace, PatternCache — are deliberately excluded: they change how long
// a compile may take or what is recorded about it, never its output (a
// budget that actually intervenes produces a Degraded result, which is
// never stored). opts must already have defaults applied, so the
// zero-value and explicit-default spellings of an option digest alike.
func optionsDigest(a *arch.Arch, opts *Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(uint64(opts.Mode))
	w(math.Float64bits(opts.Angle))
	w(math.Float64bits(opts.Alpha))
	w(uint64(opts.MaxPredictions))
	if opts.CrosstalkAware {
		w(1)
	} else {
		w(0)
	}
	if opts.Noise == nil {
		w(0)
		return h.Sum64()
	}
	w(1)
	w(noiseDigest(a, opts.Noise))
	return h.Sum64()
}

// noiseDigest hashes a model's content. Edge rates are visited in the
// architecture's deterministic edge order (never by map iteration), with
// the map's size folded in so entries outside the coupling graph still
// perturb the digest.
func noiseDigest(a *arch.Arch, m *noise.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(uint64(len(m.TwoQubit)))
	for _, e := range a.G.Edges() {
		w(uint64(e.U)<<32 | uint64(uint32(e.V)))
		w(math.Float64bits(m.TwoQubit[e]))
	}
	w(uint64(len(m.SingleQubit)))
	for _, v := range m.SingleQubit {
		w(math.Float64bits(v))
	}
	w(uint64(len(m.Readout)))
	for _, v := range m.Readout {
		w(math.Float64bits(v))
	}
	w(math.Float64bits(m.IdlePerCycle))
	w(math.Float64bits(m.CrosstalkFactor))
	return h.Sum64()
}

// toCanonicalRecord rewrites a compile result into the problem's
// canonical frame: logical indices (initial/final mapping slots, gate
// tags) go through perm, physical operands are architecture-frame and
// stay as they are.
func toCanonicalRecord(res *Result, perm []int, n int) *cachestore.ResultRecord {
	rec := &cachestore.ResultRecord{
		Source:         res.Source,
		NQubits:        n,
		SelectedPrefix: res.Stats.SelectedPrefix,
		Initial:        make([]int, n),
		Final:          make([]int, n),
		Gates:          make([]cachestore.GateRecord, len(res.Circuit.Gates)),
	}
	for l := 0; l < n; l++ {
		rec.Initial[perm[l]] = res.Initial[l]
		rec.Final[perm[l]] = res.Final[l]
	}
	for i, g := range res.Circuit.Gates {
		gr := cachestore.GateRecord{
			Kind: int(g.Kind), Q0: g.Q0, Q1: g.Q1, Angle: g.Angle, Tagged: g.Tagged,
		}
		if g.Tagged {
			cu, cv := perm[g.Tag.U], perm[g.Tag.V]
			if cu > cv {
				cu, cv = cv, cu
			}
			gr.TagU, gr.TagV = cu, cv
		}
		rec.Gates[i] = gr
	}
	return rec
}

// rehydrate decodes a canonical-frame record and translates it into the
// requesting problem's frame through the inverse of its canonical
// permutation, then runs the same error-severity verifier pass a fresh
// compile must clear. Every field is bounds-checked first: the record is
// untrusted input and must never panic the caller.
func rehydrate(payload []byte, perm []int, a *arch.Arch, problem *graph.Graph, opts Options) (*Result, error) {
	rec, gates, err := cachestore.DecodeResultGates(payload)
	if err != nil {
		return nil, err
	}
	n := problem.N()
	if rec.Degraded || rec.NQubits != n || len(rec.Initial) != n || len(rec.Final) != n {
		return nil, fmt.Errorf("core: cached record shape mismatch (n=%d)", rec.NQubits)
	}
	inv := make([]int, n)
	for l, c := range perm {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("core: canonical permutation out of range")
		}
		inv[c] = l
	}
	initial := make([]int, n)
	final := make([]int, n)
	for l := 0; l < n; l++ {
		initial[l] = rec.Initial[perm[l]]
		final[l] = rec.Final[perm[l]]
	}
	c := circuit.New(a.N())
	c.Gates = make([]circuit.Gate, 0, gates.Len())
	for gr := (cachestore.GateRecord{}); gates.Next(&gr); {
		i := len(c.Gates)
		k := circuit.Kind(gr.Kind)
		if k < 0 || k > circuit.GateZZSwap {
			return nil, fmt.Errorf("core: cached gate %d has unknown kind %d", i, gr.Kind)
		}
		if gr.Q0 < 0 || gr.Q0 >= a.N() {
			return nil, fmt.Errorf("core: cached gate %d operand out of range", i)
		}
		if k.TwoQubit() && (gr.Q1 < 0 || gr.Q1 >= a.N() || gr.Q1 == gr.Q0) {
			return nil, fmt.Errorf("core: cached gate %d second operand out of range", i)
		}
		g := circuit.Gate{Kind: k, Q0: gr.Q0, Q1: gr.Q1, Angle: gr.Angle, Tagged: gr.Tagged}
		if gr.Tagged {
			if gr.TagU < 0 || gr.TagU >= n || gr.TagV < 0 || gr.TagV >= n {
				return nil, fmt.Errorf("core: cached gate %d tag out of range", i)
			}
			g.Tag = graph.NewEdge(inv[gr.TagU], inv[gr.TagV])
		}
		c.Gates = append(c.Gates, g)
	}
	if err := gates.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		Circuit: c,
		Initial: initial,
		Final:   final,
		Source:  rec.Source,
		Metrics: Measure(c, opts.Noise),
	}
	res.Stats.SelectedPrefix = rec.SelectedPrefix
	pass := &verify.Pass{
		Circuit:       c,
		Arch:          a,
		Problem:       problem,
		Initial:       initial,
		Final:         final,
		ReportedDepth: res.Metrics.Depth,
		CheckDepth:    true,
		Angle:         opts.Angle,
	}
	analyzers := verify.Strict
	if opts.Verify {
		analyzers = verify.All
	}
	diags := verify.Run(pass, analyzers...)
	if opts.Verify {
		res.Diagnostics = diags
	}
	if vErr := verify.AsError(diags); vErr != nil {
		return nil, fmt.Errorf("core: cached circuit failed verification: %w", vErr)
	}
	return res, nil
}
