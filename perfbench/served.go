package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/serve"
)

const (
	// servedRate is the open loop's Poisson arrival rate. At this rate a
	// 2-core machine serves with a p99 near 20 ms and no sheds.
	servedRate = 300.0
	// hotShare is the fraction of requests drawn from the prefilled hot set;
	// the rest are fresh problems, each a cache miss and a full compile.
	hotShare = 0.8
	// hotRelabels is how many hot problems, the first of servedSpecs, also
	// join the hot set as a relabeled variant.
	hotRelabels = 3
)

// hotEntry is a prefilled request and the answer every later request for it
// must repeat.
type hotEntry struct {
	prob *problem
	body []byte
	ref  serve.CompileResponse
}

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the start of the round
	class int
	hot   *hotEntry // nil for a fresh problem
	fresh *problem
	body  []byte
}

// pendingCheck is a fresh answer kept for client-side verification after
// the round.
type pendingCheck struct {
	prob           *problem
	qasm           string
	initial, final []int
}

// servedSession drives the daemon's HTTP handler in process with an open
// loop of requests.
type servedSession struct {
	srv     *serve.Server
	handler http.Handler
	cache   *ataqc.Cache
	dir     string
	hot     []*hotEntry
	names   []string // hot entries, then one fresh class per spec
	inputs  []*problem
	seed    int64
	segment int64 // schedules drawn so far
	senders int
	fail    *failures
	tracer  atomic.Pointer[tracer]

	mu      sync.Mutex
	pending []pendingCheck
}

// setupServed opens a disk-backed cache, starts the server with the daemon's
// defaults, and prefills the hot set through the handler.
func setupServed(env *env) (session, error) {
	rng := rand.New(rand.NewSource(env.seed))
	dir, err := os.MkdirTemp(env.workdir, "served-")
	if err != nil {
		return nil, err
	}
	s := &servedSession{dir: dir, seed: env.seed, senders: env.nproc, fail: env.fail}
	if s.cache, err = ataqc.OpenCache(dir, 0); err != nil {
		s.close()
		return nil, err
	}
	s.srv = serve.New(serve.Config{Cache: s.cache, Compile: s.compile})
	s.handler = s.srv.Handler()

	probs, err := drawProblems(servedSpecs, 1, rng)
	if err != nil {
		s.close()
		return nil, err
	}
	// The same specs are relabeled under every seed, so the hot set's sizes,
	// and with them its latencies, do not depend on the seed.
	for _, p := range probs[:hotRelabels] {
		probs = append(probs, p.relabeled(p.name+"/relabel", rng))
	}
	for _, p := range probs {
		body, err := json.Marshal(p.request(""))
		if err != nil {
			s.close()
			return nil, err
		}
		rec := post(s.handler, body)
		if rec.Code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("prefill %s: status %d: %s", p.name, rec.Code, rec.Body)
		}
		h := &hotEntry{prob: p, body: body}
		if err := json.Unmarshal(rec.Body.Bytes(), &h.ref); err != nil {
			s.close()
			return nil, fmt.Errorf("prefill %s: %w", p.name, err)
		}
		s.verify(p, h.ref.QASM, h.ref.Initial, h.ref.Final)
		s.hot = append(s.hot, h)
		s.names = append(s.names, p.name)
	}
	// The layer replay sees the hot set plus one fresh problem per spec.
	s.inputs = probs
	for _, sp := range servedSpecs {
		s.names = append(s.names, "fresh/"+sp.String())
		p, err := newProblem(sp, rng)
		if err != nil {
			s.close()
			return nil, err
		}
		s.inputs = append(s.inputs, p)
	}
	return s, nil
}

// compile is the server's compile entry point: the library call, timed from
// outside when a traced round is running.
func (s *servedSession) compile(ctx context.Context, dev *ataqc.Device, prob *ataqc.Problem, opts ataqc.Options) (*ataqc.Result, error) {
	tr := s.tracer.Load()
	if tr == nil {
		return ataqc.CompileContext(ctx, dev, prob, opts)
	}
	start := time.Now()
	res, err := ataqc.CompileContext(ctx, dev, prob, opts)
	if err == nil {
		tr.compiled(time.Since(start), res.Timeline())
	}
	return res, err
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// verify checks a served circuit against the problem it was asked for.
func (s *servedSession) verify(p *problem, qasm string, initial, final []int) {
	a, g, _ := p.internal()
	if err := checkQASM(qasm, a, g, initial, final); err != nil {
		s.fail.add("%s: %v", p.name, err)
	}
}

// layout counts only fresh answers toward depth and CX: they are the ones
// compiled inside the window, and they sample every spec many times, where
// the hot answers repeat nine set-up compiles.
func (s *servedSession) layout() layout {
	return layout{classes: s.names, quality: len(s.hot), open: true}
}
func (s *servedSession) replayInputs() []*problem { return s.inputs }
func (s *servedSession) strategy() ataqc.Strategy { return ataqc.StrategyHybrid }

// schedule draws the next round's arrivals and pre-encodes their bodies.
// Each round draws from its own seeded stream, so the inputs depend only on
// the seed and the round's position in the run.
func (s *servedSession) schedule(d time.Duration) ([]arrival, error) {
	s.segment++
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + s.segment))
	var out []arrival
	for t := rng.ExpFloat64() / servedRate; t < d.Seconds(); t += rng.ExpFloat64() / servedRate {
		a := arrival{due: time.Duration(t * float64(time.Second))}
		if rng.Float64() < hotShare {
			a.class = rng.Intn(len(s.hot))
			a.hot = s.hot[a.class]
			a.body = a.hot.body
		} else {
			k := rng.Intn(len(servedSpecs))
			p, err := newProblem(servedSpecs[k], rng)
			if err != nil {
				return nil, err
			}
			if a.body, err = json.Marshal(p.request("")); err != nil {
				return nil, err
			}
			a.class, a.fresh = len(s.hot)+k, p
		}
		out = append(out, a)
	}
	return out, nil
}

func (s *servedSession) round(d time.Duration, sp *speedometer, tr *tracer) ([]sample, time.Duration, error) {
	sched, err := s.schedule(d)
	if err != nil {
		return nil, 0, err
	}
	due := make([]time.Duration, len(sched))
	for i := range sched {
		due[i] = sched[i].due
	}
	s.tracer.Store(tr)
	samples, wall := openLoop(s.senders, due, sp, func(i int, at time.Time) sample { return s.send(&sched[i], at, tr) })
	s.tracer.Store(nil)

	// Client-side verification of every fresh answer, outside the window.
	for _, pc := range s.pending {
		s.verify(pc.prob, pc.qasm, pc.initial, pc.final)
	}
	s.pending = s.pending[:0]
	return samples, wall, nil
}

// send posts one request and checks the answer. A hot request must be a
// memory-tier hit identical to its prefill answer; a fresh one is queued for
// verification after the round.
func (s *servedSession) send(a *arrival, due time.Time, tr *tracer) sample {
	span := tr.span(nil, "request", obs.Str("class", s.names[a.class]))
	rec := post(s.handler, a.body)
	smp := sample{class: a.class, lat: time.Since(due)}
	span.End()
	var resp serve.CompileResponse
	switch {
	case rec.Code != http.StatusOK:
		s.fail.add("%s: status %d: %s", s.names[a.class], rec.Code, rec.Body)
	case json.Unmarshal(rec.Body.Bytes(), &resp) != nil:
		s.fail.add("%s: undecodable answer", s.names[a.class])
	case a.hot != nil && resp.CacheTier != "mem":
		s.fail.add("%s: expected a memory-tier hit, got tier %q", s.names[a.class], resp.CacheTier)
	case a.hot != nil && !sameAnswer(&resp, &a.hot.ref):
		s.fail.add("%s: answer differs from its prefill", s.names[a.class])
	default:
		if a.fresh != nil {
			s.mu.Lock()
			s.pending = append(s.pending, pendingCheck{prob: a.fresh, qasm: resp.QASM, initial: resp.Initial, final: resp.Final})
			s.mu.Unlock()
		}
		smp.depth, smp.cx = resp.Depth, resp.CXCount
		return smp
	}
	smp.failed = true
	return smp
}

func sameAnswer(x, y *serve.CompileResponse) bool {
	return x.Depth == y.Depth && x.CXCount == y.CXCount && x.Swaps == y.Swaps &&
		slices.Equal(x.Initial, y.Initial) && slices.Equal(x.Final, y.Final) && x.QASM == y.QASM
}

func (s *servedSession) counters() map[string]float64 {
	c := cacheCounters(s.cache.Stats())
	snap := s.srv.Metrics().Snapshot()
	c["serve.shed"] = float64(snap.Counters["serve.shed"])
	c["serve.degraded"] = float64(snap.Counters["serve.degraded"])
	c["serve.pressure_elevated"] = float64(snap.Counters["serve.pressure.1"] + snap.Counters["serve.pressure.2"])
	c["serve.queue_max"] = float64(snap.Gauges["serve.queue"].Max)
	for name, h := range map[string]string{
		"serve.queue_wait": "serve.queue_wait_us",
		"serve.handler":    obs.Labeled("serve.http.latency_us", obs.Label{Key: "endpoint", Value: "compile"}),
	} {
		c[name+".count"] = float64(snap.Histograms[h].Count)
		c[name+".sum_us"] = float64(snap.Histograms[h].Sum)
	}
	return c
}

func (s *servedSession) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		cancel()
	}
	if s.cache != nil {
		if err := s.cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close cache: %v\n", err)
		}
	}
	os.RemoveAll(s.dir)
}
