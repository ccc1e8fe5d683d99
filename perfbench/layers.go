package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/greedy"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/serve"
	"github.com/ata-pattern/ataqc/internal/swapnet"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// staticAnalyzers are the error-severity analyzers other than sema.
var staticAnalyzers = []*verify.Analyzer{
	verify.ArchConformance, verify.PermSoundness, verify.Coverage, verify.DepthConsistency, verify.AngleSanity,
}

// layerTimer times calls into the compiler's layers, each under its own
// span, and averages every metric over the calls it saw.
type layerTimer struct {
	tr    *tracer
	span  *obs.Span // parent of the next calls
	sums  map[string]float64
	count map[string]int
}

// time calls f under a span and records its duration in the metric's unit,
// which its name's suffix gives.
func (l *layerTimer) time(name string, f func()) {
	sp := l.tr.span(l.span, name)
	start := time.Now()
	f()
	d := time.Since(start)
	sp.End()
	if strings.HasSuffix(name, "_us") {
		l.add(name, float64(d.Nanoseconds())/1e3)
	} else {
		l.add(name, durMs(d))
	}
}

func (l *layerTimer) add(name string, v float64) {
	l.sums[name] += v
	l.count[name]++
}

// replay calls each layer's public entry points on every input, in passes,
// until budget has passed (at least one pass), and returns each metric's
// mean.
func replay(ctx context.Context, inputs []*problem, strategy ataqc.Strategy, budget time.Duration, tr *tracer, e *env) (map[string]float64, error) {
	l := &layerTimer{tr: tr, sums: map[string]float64{}, count: map[string]int{}}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		if err := replayPass(ctx, l, inputs, strategy, e); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for name, sum := range l.sums {
		out[name] = sum / float64(l.count[name])
	}
	return out, nil
}

// replayPass gives every input to each layer once, against fresh caches.
func replayPass(ctx context.Context, l *layerTimer, inputs []*problem, strategy ataqc.Strategy, e *env) error {
	dir, err := os.MkdirTemp(e.workdir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cachestore.Open(dir, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	r := &replayer{
		l:        l,
		store:    store,
		tiered:   cachestore.NewTiered(store, 0),
		patterns: swapnet.NewPatternCache(0),
		handler:  serve.New(serve.Config{Cache: ataqc.MemoryCache()}).Handler(),
		strategy: strategy,
		fail:     e.fail,
	}
	for _, p := range inputs {
		if err := r.input(ctx, p); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	ps := r.patterns.Stats()
	if lookups := ps.Hits + ps.Misses; lookups > 0 {
		l.add("swapnet.pattern_hit_ratio", float64(ps.Hits)/float64(lookups))
	}
	return nil
}

// replayer holds one pass's fresh caches.
type replayer struct {
	l        *layerTimer
	store    *cachestore.Store
	tiered   *cachestore.Tiered
	patterns *swapnet.PatternCache
	handler  http.Handler
	strategy ataqc.Strategy
	fail     *failures
}

// refinePasses is the hill-climb pass count core.CompileContext gives
// greedy.RefinePlacement for an n-qubit problem.
func refinePasses(n int) int { return min(max(2048/(n+1), 1), 6) }

func (r *replayer) input(ctx context.Context, p *problem) error {
	l := r.l
	a, g, nm := p.internal()
	l.span = l.tr.span(nil, "replay", obs.Str("input", p.name))
	defer func() { l.span.End(); l.span = nil }()

	var hash [32]byte
	l.time("graph.canonical_ms", func() { _, hash = graph.CanonicalForm(g) })
	var initial []int
	l.time("greedy.initial_mapping_ms", func() { initial = greedy.InitialMapping(a, g) })
	l.time("greedy.refine_ms", func() { initial = greedy.RefinePlacement(a, g, initial, refinePasses(g.N())) })
	var err error
	l.time("greedy.schedule_ms", func() { _, err = greedy.Compile(a, g, initial, greedy.Options{Noise: nm, Angle: 1}) })
	if err != nil {
		return fmt.Errorf("greedy: %w", err)
	}
	l.time("swapnet.ata_ms", func() {
		st := swapnet.NewStateFromMapping(a, initial, swapnet.NewEdgeSet(g))
		var c swapnet.Counter
		err = swapnet.ATAWithCache(st, arch.FullRegion(a), c.Emit, nil)
	})
	if err != nil {
		return fmt.Errorf("ata: %w", err)
	}

	// One uncached compile with the workload's strategy gives the circuit
	// the layers below work on.
	mode := core.ModeHybrid
	if r.strategy == ataqc.StrategyGreedy {
		mode = core.ModeGreedy
	}
	var res *core.Result
	sp := l.tr.span(l.span, "core.CompileContext")
	res, err = core.CompileContext(ctx, a, g, core.Options{Mode: mode, Noise: nm, Workers: 1, PatternCache: r.patterns})
	sp.End()
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	pass := &verify.Pass{
		Circuit: res.Circuit, Arch: a, Problem: g, Initial: res.Initial, Final: res.Final,
		ReportedDepth: res.Metrics.Depth, CheckDepth: true, Angle: 1,
	}
	var static, sema []verify.Diagnostic
	l.time("verify.static_ms", func() { static = verify.Run(pass, staticAnalyzers...) })
	l.time("verify.sema_ms", func() { sema = verify.Run(pass, verify.Sema) })
	if err := verify.AsError(append(static, sema...)); err != nil {
		r.fail.add("%s: replayed compile: %v", p.name, err)
	}
	l.time("circuit.measure_ms", func() { core.Measure(res.Circuit, nil) })
	var qasm bytes.Buffer
	l.time("circuit.qasm_encode_ms", func() { err = res.Circuit.WriteQASM(&qasm) })
	if err != nil {
		return err
	}
	l.add("circuit.gates", float64(len(res.Circuit.Gates)))

	if err := r.storeRecord(a, g.N(), hash, res); err != nil {
		return err
	}
	return r.serveRequest(p, a, res, qasm.String())
}

// storeRecord stores the compiled result as a cache record and reads it back.
func (r *replayer) storeRecord(a *arch.Arch, n int, hash [32]byte, res *core.Result) error {
	l := r.l
	rec := &cachestore.ResultRecord{
		Source: res.Source, NQubits: n, SelectedPrefix: res.Stats.SelectedPrefix,
		Initial: res.Initial, Final: res.Final, Gates: make([]cachestore.GateRecord, len(res.Circuit.Gates)),
	}
	for i, g := range res.Circuit.Gates {
		rec.Gates[i] = cachestore.GateRecord{Kind: int(g.Kind), Q0: g.Q0, Q1: g.Q1, Angle: g.Angle, TagU: g.Tag.U, TagV: g.Tag.V, Tagged: g.Tagged}
	}
	payload := cachestore.EncodeResult(rec)
	key := cachestore.ResultKey(a.Fingerprint(), hash, 0)
	var err error
	l.time("cachestore.put_ms", func() { err = r.store.Put(key, payload) })
	if err != nil {
		return fmt.Errorf("cache put: %w", err)
	}
	r.tiered.Get(key) // the disk read promotes the entry into memory
	var ok bool
	l.time("cachestore.get_us", func() { _, _, ok = r.tiered.Get(key) })
	if !ok {
		return fmt.Errorf("cache get: stored record missing")
	}
	l.time("cachestore.decode_us", func() { _, err = cachestore.DecodeResult(payload) })
	return err
}

// serveRequest times the daemon's request decoding and response encoding on
// p, then submits p to a fresh handler twice: once uncached, once as a repeat.
func (r *replayer) serveRequest(p *problem, a *arch.Arch, res *core.Result, qasm string) error {
	l := r.l
	body, err := json.Marshal(p.request(r.strategy))
	if err != nil {
		return err
	}
	l.time("serve.decode_ms", func() { err = decodeRequest(body) })
	if err != nil {
		return err
	}
	resp := serve.CompileResponse{
		Device: a.Name, DeviceQubits: a.N(), Qubits: p.spec.n, Interactions: len(p.edges),
		Strategy: string(r.strategy), Depth: res.Metrics.Depth, CXCount: res.Metrics.CXCount, Swaps: res.Metrics.Swaps,
		Initial: res.Initial, Final: res.Final, QASM: qasm,
	}
	var buf bytes.Buffer
	l.time("serve.encode_ms", func() { err = json.NewEncoder(&buf).Encode(&resp) })
	if err != nil {
		return err
	}
	for _, metric := range []string{"serve.handler_first_ms", "serve.handler_repeat_ms"} {
		var code int
		l.time(metric, func() { code = post(r.handler, body).Code })
		if code != http.StatusOK {
			return fmt.Errorf("handler answered %d", code)
		}
	}
	return nil
}

// decodeRequest is the daemon's strict request decoding plus the problem
// build that follows it.
func decodeRequest(body []byte) error {
	var req serve.CompileRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	prob := ataqc.NewProblem(req.N)
	for _, e := range req.Edges {
		prob.AddInteraction(e[0], e[1])
	}
	return nil
}
