// Package serve is the robustness layer of the compile-as-a-service daemon
// (cmd/ataqcd): admission control with a bounded queue and explicit 429
// load shedding, per-request panic isolation, a queue-pressure degradation
// policy that tightens compile budgets as backlog grows (reusing the
// compiler's governance ladder, so starved requests still return
// verifier-clean linear-depth circuits), health/readiness endpoints, and
// graceful shutdown that drains in-flight jobs under a deadline.
//
// The contract the chaos harness (internal/faultinject network faults +
// cmd/ataqc-bench -chaos) enforces: no hostile client behavior — malformed
// payloads, truncated bodies, header stalls, mid-request cancellations,
// queue overflow, panic-injected compiles — may kill the daemon or elicit
// an unstructured answer. Every response is either a compiled circuit or a
// typed JSON error with a machine-readable code.
//
// Every response additionally carries a trace ID (the X-Ataqc-Trace-Id
// header, echoed in JSON bodies), generated at admission and propagated
// through the compile via context, so one ID follows a request across
// logs, compile spans, and the debugz flight recorder (see
// internal/telemetry).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

// CompileFunc is the compile entry point the server drives; tests and chaos
// harnesses substitute their own.
type CompileFunc func(ctx context.Context, dev *ataqc.Device, prob *ataqc.Problem, opts ataqc.Options) (*ataqc.Result, error)

// Config sizes the server's admission control and budgets. Zero values take
// the documented defaults.
type Config struct {
	// Workers is the compile worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the waiting room beyond the running workers
	// (default 4x workers). Arrivals beyond workers+queue are shed with a
	// 429 instead of queued — bounded latency beats unbounded patience.
	QueueDepth int
	// RequestTimeout is the per-request compile ceiling (default 30s);
	// queue pressure tightens it further (see pressure.go).
	RequestTimeout time.Duration
	// DrainTimeout caps how long Shutdown waits for in-flight jobs
	// (default 10s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps the request body (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxQubits caps the per-request device/problem size (default
	// DefaultMaxQubits).
	MaxQubits int
	// AllowChaos honors the request Chaos field (panic / sleep injection).
	// Off by default; the CI chaos job and -chaos bench runs enable it.
	AllowChaos bool
	// RecorderSize is the flight-recorder ring capacity: how many
	// completed compile requests debugz can replay (default 256).
	RecorderSize int
	// SLO configures the rolling-window objectives surfaced in statz and
	// readyz warnings; zero fields take the telemetry defaults.
	SLO telemetry.SLOConfig
	// TraceSeed seeds trace-ID generation (0 = crypto-random); tests pin
	// it for reproducible IDs.
	TraceSeed int64
	// Clock drives the flight recorder and SLO tracker (default
	// obs.SystemClock); tests inject a fake to step time deterministically.
	Clock obs.Clock
	// Cache, when non-nil, is attached to every compile under the
	// hybrid/greedy/ata strategies (Options.Cache) and surfaced in the
	// metrics registry: cache.hits{tier=mem|disk} and cache.misses
	// counters, plus size, corruption and canonical-form give-up gauges,
	// appear in /statz and /metricsz after the first cached compile.
	// Responses carry the tier that answered in cacheTier.
	Cache *ataqc.Cache
	// Compile overrides the compile entry point (default
	// ataqc.CompileContext).
	Compile CompileFunc
	// Logf, when non-nil, receives one line per notable event (shed,
	// panic, drain). Lines about a specific request carry its trace ID.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = DefaultMaxQubits
	}
	if c.RecorderSize <= 0 {
		c.RecorderSize = 256
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock
	}
	if c.Compile == nil {
		c.Compile = ataqc.CompileContext
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the compile service. Construct with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	policy   pressurePolicy
	slots    chan struct{} // worker-pool tokens
	queued   atomic.Int64  // admitted requests (waiting + running)
	inflight sync.WaitGroup
	draining atomic.Bool
	met      *obs.Registry
	ids      *telemetry.IDSource
	flight   *telemetry.FlightRecorder
	slo      *telemetry.Tracker
	mux      *http.ServeMux
}

// New returns a server ready to mount.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		policy: pressurePolicy{queueDepth: cfg.Workers + cfg.QueueDepth, ceiling: cfg.RequestTimeout},
		slots:  make(chan struct{}, cfg.Workers),
		met:    obs.NewRegistry(),
		ids:    telemetry.NewIDSource(cfg.TraceSeed),
		flight: telemetry.NewFlightRecorder(cfg.RecorderSize, cfg.Clock),
		slo:    telemetry.NewTracker(cfg.SLO, cfg.Clock),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/compile", s.guard("compile", true, s.handleCompile))
	s.mux.HandleFunc("/healthz", s.guard("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.guard("readyz", false, s.handleReadyz))
	s.mux.HandleFunc("/statz", s.guard("statz", false, s.handleStatz))
	s.mux.HandleFunc("/metricsz", s.guard("metricsz", false, s.handleMetricsz))
	s.mux.HandleFunc("/debugz", s.guard("debugz", false, s.handleDebugz))
	return s
}

// Handler returns the HTTP surface: POST /compile, GET /healthz, /readyz,
// /statz, /metricsz, /debugz.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's registry (latency histograms, shed/degrade
// counters, queue gauge, per-endpoint request series) for benches and tests.
func (s *Server) Metrics() *obs.Registry { return s.met }

// Flight exposes the flight recorder (debugz backing store) for tests.
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// SLO exposes the objective tracker for tests.
func (s *Server) SLO() *telemetry.Tracker { return s.slo }

// Queued reports the admitted requests currently waiting or running.
func (s *Server) Queued() int64 { return s.queued.Load() }

// Capacity reports the admission bound (workers + queue depth).
func (s *Server) Capacity() int { return s.cfg.Workers + s.cfg.QueueDepth }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown stops admitting work and waits for in-flight jobs to drain,
// bounded by the earlier of ctx and the configured DrainTimeout. Live
// debugz streams are ended either way. It returns nil when the queue
// drained and an error naming the stragglers' count when the deadline won.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	defer s.flight.CloseSubscribers()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Logf("serve: drained cleanly")
		return nil
	case <-ctx.Done():
		n := s.queued.Load()
		s.cfg.Logf("serve: drain deadline passed with %d in flight", n)
		return fmt.Errorf("serve: drain deadline passed with %d requests in flight", n)
	}
}

// guard is the per-request telemetry and panic boundary, in that order of
// registration so the deferred pieces unwind correctly: it mints the trace
// ID and sets the response header before the handler can write, opens a
// flight-recorder job for tracked endpoints, and converts a handler panic
// into a structured 500 (when the response has not started) so the daemon
// keeps serving. Because deferred functions run last-registered-first, the
// finish/metrics defer is registered before the recover defer: a panic is
// recovered (writing the 500) first, and only then does the job commit —
// so even a panicking request lands a complete flight-recorder entry with
// its final status, never a half-written slot. This is the outermost
// isolation layer; the compiler has its own recover at core.CompileContext,
// so this one catches handler bugs and injected chaos panics.
func (s *Server) guard(endpoint string, track bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.ids.New()
		tw := &trackingWriter{ResponseWriter: w}
		tw.Header().Set(telemetry.TraceHeader, string(id))
		r = r.WithContext(telemetry.WithTraceID(r.Context(), id))

		var job *telemetry.Job
		if track {
			job = s.flight.Begin(id, endpoint)
			r = r.WithContext(telemetry.WithJob(r.Context(), job))
		}
		start := time.Now()
		defer func() {
			status := tw.status
			if status == 0 {
				status = http.StatusOK // handler returned without writing
			}
			elapsed := time.Since(start)
			s.met.Counter(obs.Labeled("serve.http.requests",
				obs.Label{Key: "endpoint", Value: endpoint},
				obs.Label{Key: "status", Value: fmt.Sprint(status)})).Add(1)
			s.met.Histogram(obs.Labeled("serve.http.latency_us",
				obs.Label{Key: "endpoint", Value: endpoint})).Observe(elapsed.Microseconds())
			if track {
				s.slo.Record(status, elapsed, job.Degraded())
				job.Finish(status, outcomeOf(status))
			}
		}()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.Counter("serve.panics").Add(1)
				s.cfg.Logf("serve: panic serving %s %s trace=%s: %v\n%s",
					r.Method, r.URL.Path, id, rec, debug.Stack())
				job.SetErrCode(string(CodeInternal))
				if !tw.wrote {
					writeError(tw, &apiError{
						Status:  http.StatusInternalServerError,
						Code:    CodeInternal,
						Message: fmt.Sprintf("panic: %v", rec),
					})
				} else if tw.status == 0 {
					// Body bytes went out without an explicit status: the
					// implicit 200 already reached the wire, record it.
					tw.status = http.StatusOK
				}
			}
		}()
		h(tw, r)
	}
}

// outcomeOf names the flight-recorder outcome class for a final status.
func outcomeOf(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status >= 500:
		return "error"
	default:
		return "rejected"
	}
}

// trackingWriter records whether the response has started and with which
// status, so the panic guard knows if a structured error can still be
// written and the telemetry defer knows what went on the wire. It forwards
// Flush so debugz streams work through the guard.
type trackingWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (t *trackingWriter) WriteHeader(code int) {
	if !t.wrote {
		t.status = code
	}
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	if !t.wrote {
		t.status = http.StatusOK
	}
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	job := telemetry.JobFrom(r.Context())
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: CodeInvalidRequest,
			Message: "POST only"})
		return
	}
	s.met.Counter("serve.requests").Add(1)
	if s.draining.Load() {
		writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message: "daemon is draining; no new work admitted"})
		return
	}

	// Parse before admission: rejecting malformed bodies must not consume
	// queue capacity, and MaxBytesReader bounds what a hostile body can
	// make us read.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, dev, prob, opts, err := parseRequest(r.Body, s.cfg.MaxQubits)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	var chaosSleep time.Duration
	if req.Chaos != "" {
		if !s.cfg.AllowChaos {
			s.fail(w, r, errInvalid("chaos directives are disabled on this daemon"))
			return
		}
		if chaosSleep, err = parseChaos(req.Chaos); err != nil {
			s.fail(w, r, err)
			return
		}
	}

	// Admission: claim a queue position or shed. The counter is the single
	// source of truth — increment first, then check, so concurrent
	// arrivals cannot both squeeze into the last position.
	queued := s.queued.Add(1)
	s.met.Gauge("serve.queue").Set(queued)
	if queued > int64(s.Capacity()) {
		s.queued.Add(-1)
		s.met.Counter("serve.shed").Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, &apiError{Status: http.StatusTooManyRequests, Code: CodeOverloaded,
			Message: fmt.Sprintf("queue full (%d in flight); retry with backoff", queued-1)})
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.queued.Add(-1)
		s.inflight.Done()
	}()

	ctx := r.Context()
	enq := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.fail(w, r, ctx.Err()) // client gave up while queued
		return
	}
	defer func() { <-s.slots }()
	wait := time.Since(enq)
	s.met.Histogram("serve.queue_wait_us").Observe(wait.Microseconds())
	job.SetQueueWait(wait)

	// Chaos injection (only with AllowChaos): a panicking compile must be
	// answered structurally, a sleeping one holds the worker slot so tests
	// and the bench can build real backlog.
	if req.Chaos == "panic" {
		panic(fmt.Sprintf("serve: chaos-injected compile panic (%s)", dev.Name()))
	}
	if chaosSleep > 0 {
		select {
		case <-time.After(chaosSleep):
		case <-ctx.Done():
			s.fail(w, r, ctx.Err())
			return
		}
	}

	// Pressure is sampled at compile start: the budgets reflect the
	// backlog the daemon carries right now, not when the request arrived.
	level := s.policy.level(s.queued.Load())
	deadline, maxNodes := s.policy.budgets(level, opts.Deadline, opts.MaxNodes)
	opts.Deadline, opts.MaxNodes = deadline, maxNodes
	s.met.Counter(fmt.Sprintf("serve.pressure.%d", level)).Add(1)
	job.SetPressure(level)

	if s.cfg.Cache != nil {
		opts.Cache = s.cfg.Cache
	}
	cctx, cancel := context.WithTimeout(ctx, deadline+time.Second) // the compiler's own ladder fires first
	defer cancel()
	start := time.Now()
	res, err := s.cfg.Compile(cctx, dev, prob, opts)
	elapsed := time.Since(start)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.met.Counter("serve.ok").Add(1)
	s.met.Histogram("serve.latency_us").Observe(elapsed.Microseconds())
	s.recordCacheOutcome(opts, res)
	tl := res.Timeline()
	job.SetTimeline(phasesOf(tl), tl.Winner)

	resp := &CompileResponse{
		TraceID:      string(telemetry.TraceIDFrom(ctx)),
		Device:       dev.Name(),
		DeviceQubits: dev.Qubits(),
		Qubits:       prob.Qubits(),
		Interactions: prob.Interactions(),
		Strategy:     string(opts.Strategy),
		Depth:        res.Depth(),
		CXCount:      res.CXCount(),
		Swaps:        res.SwapCount(),
		Initial:      res.InitialMapping(),
		Final:        res.FinalMapping(),
		Pressure:     level,
		ElapsedMs:    float64(elapsed.Microseconds()) / 1e3,
	}
	if req.Noise {
		resp.Fidelity = res.EstimatedFidelity()
	}
	if res.Degraded() {
		s.met.Counter("serve.degraded").Add(1)
		d := res.DegradeDetail()
		resp.Degraded = true
		resp.DegradeBudget, resp.DegradeRung = d.Budget, d.Rung
		job.SetDegraded(d.Budget, d.Rung)
	}
	if req.IncludeQASM {
		var sb strings.Builder
		if err := res.WriteQASM(&sb); err != nil {
			s.fail(w, r, fmt.Errorf("serve: QASM serialization failed: %w", err))
			return
		}
		resp.QASM = sb.String()
	}
	resp.CacheTier = res.CacheTier()
	writeJSON(w, http.StatusOK, resp)
}

// recordCacheOutcome lands the compile's cache verdict in the metrics
// registry: one hit counter per answering tier, a miss counter for
// cacheable strategies that compiled fresh, and snapshot gauges sizing
// both tiers. Only runs when the server carries a cache; baseline
// strategies (which bypass the cache) are not counted as misses.
func (s *Server) recordCacheOutcome(opts ataqc.Options, res *ataqc.Result) {
	if s.cfg.Cache == nil {
		return
	}
	switch opts.Strategy {
	case ataqc.StrategyHybrid, ataqc.StrategyGreedy, ataqc.StrategyATA, "":
	default:
		return
	}
	if tier := res.CacheTier(); tier != "" {
		s.met.Counter(obs.Labeled("cache.hits", obs.Label{Key: "tier", Value: tier})).Add(1)
	} else {
		s.met.Counter("cache.misses").Add(1)
	}
	st := s.cfg.Cache.Stats()
	s.met.Gauge("cache.mem.entries").Set(int64(st.MemEntries))
	s.met.Gauge("cache.disk.entries").Set(int64(st.DiskEntries))
	s.met.Gauge("cache.disk.bytes").Set(st.DiskBytes)
	s.met.Gauge("cache.corrupt").Set(st.Corrupt)
	s.met.Gauge("cache.canon_giveups").Set(st.CanonGiveups)
	s.met.Gauge("cache.evictions").Set(st.Evictions)
	s.met.Gauge("cache.put_failures").Set(st.PutFailures)
}

// phasesOf converts the compiler's phase breakdown into the flight
// recorder's millisecond form.
func phasesOf(tl ataqc.Timeline) []telemetry.PhaseMs {
	if len(tl.Phases) == 0 {
		return nil
	}
	out := make([]telemetry.PhaseMs, len(tl.Phases))
	for i, p := range tl.Phases {
		out[i] = telemetry.PhaseMs{Name: p.Name, Ms: float64(p.Duration.Microseconds()) / 1e3}
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and the mux answers. Always 200 — a
	// draining or saturated daemon is still alive.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Readiness: admitting new work. Draining flips it so load balancers
	// stop routing before the listener closes. SLO budget burn does NOT
	// flip readiness — a burning daemon still serves — but it annotates
	// the body so operators and probes can see trouble coming.
	body := map[string]any{
		"queued":   s.queued.Load(),
		"capacity": s.Capacity(),
	}
	if warns := s.slo.Warnings(); len(warns) > 0 {
		body["warnings"] = warns
	}
	if s.draining.Load() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	snap := s.met.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"counters":   snap.Counters,
		"gauges":     snap.Gauges,
		"histograms": snap.Histograms,
		"slo":        s.slo.Snapshot(),
		"flight":     s.flight.Stats(),
	})
}

// handleMetricsz renders the registry in Prometheus text exposition
// format 0.0.4: every counter, gauge (with its _max high-water twin), and
// log-bucket histogram, with labeled series grouped under one family.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = telemetry.WriteProm(w, s.met.Snapshot())
}

// fail classifies err and writes the structured error, bumping the
// per-code counter and stamping the flight-recorder job.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	ae := classify(err)
	s.met.Counter("serve.errors." + string(ae.Code)).Add(1)
	telemetry.JobFrom(r.Context()).SetErrCode(string(ae.Code))
	if ae.Status == http.StatusTooManyRequests || ae.Status >= 500 {
		s.cfg.Logf("serve: trace=%s %s", telemetry.TraceIDFrom(r.Context()), ae.Error())
	}
	writeError(w, ae)
}

func writeError(w http.ResponseWriter, ae *apiError) {
	// The guard set the trace header before the handler ran; echo it in
	// the body so clients that lost the headers still have the ID.
	writeJSON(w, ae.Status, &ErrorResponse{
		TraceID: w.Header().Get(telemetry.TraceHeader),
		Error:   *ae,
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure past WriteHeader cannot be answered structurally;
	// the client sees a truncated body and treats it as a transport error.
	_ = json.NewEncoder(w).Encode(body)
}
