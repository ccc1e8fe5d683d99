// Command perfbench is the repository benchmark. It runs one workload of the
// ataqc compiler in process for a fixed time, checks every output, and prints
// the end-to-end metrics declared in BENCHMARK.json, or, with --trace 1, the
// per-layer metrics of a separate traced run. README.md describes the
// workloads, the metrics and the comparison procedure.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-hybrid --seed 1 --seconds 20 --trace 0
//
// Each metric is printed as "workload metric value unit"; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// session is one set-up workload, ready to be timed.
type session interface {
	layout() layout
	// round runs one timed round of length d, pacing the reference kernel
	// into sp, and returns its samples and wall time. Checks that need a
	// finished round run after the wall time is taken. tr is nil outside
	// the traced run.
	round(d time.Duration, sp *speedometer, tr *tracer) ([]sample, time.Duration, error)
	// replayInputs lists the distinct problems the layer replay runs.
	replayInputs() []*problem
	// strategy is the compile strategy the workload times.
	strategy() ataqc.Strategy
	// counters reports cumulative counts at layer boundaries (nil when the
	// workload has none).
	counters() map[string]float64
	close()
}

// layout describes how a session's samples are grouped and read.
type layout struct {
	classes []string // instance rows samples are grouped by
	quality int      // first class whose answers count toward depth and CX
	open    bool     // open loop: the arrival schedule sets throughput
}

// env is what a workload's set-up receives.
type env struct {
	seed    int64
	workdir string // scratch space for cache stores
	nproc   int
	fail    *failures
}

type workload struct {
	name  string
	setup func(*env) (session, error)
}

var workloads = []workload{
	{"cold-hybrid", setupColdHybrid},
	{"greedy-large", setupGreedyLarge},
	{"warm-repeat", setupWarmRepeat},
	{"served-mixed", setupServed},
}

// metricDef is a metric's name and unit as BENCHMARK.json declares them.
// For a per-layer metric, moves and on name the end-to-end metric and the
// workload a change to the layer should show on.
type metricDef struct{ name, unit, moves, on string }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_ms_geomean", unit: "ms"},
	{name: "latency_ms_slowest", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "depth_geomean", unit: "gates"},
	{name: "cx_geomean", unit: "gates"},
	{name: "heap_live_mb", unit: "MB"},
}

var perLayer = []metricDef{
	{"core.place_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"core.greedy_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"core.predict_ms", "ms", "latency_ms_geomean", "cold-hybrid"},
	{"core.materialize_ms", "ms", "latency_ms_geomean", "cold-hybrid"},
	{"core.verify_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"core.checkpoints", "count", "latency_ms_geomean", "cold-hybrid"},
	{"core.predict_us_per_checkpoint", "us", "latency_ms_geomean", "cold-hybrid"},
	{"core.predict_won_ratio", "ratio", "depth_geomean", "cold-hybrid"},
	{"core.unattributed_ms", "ms", "latency_ms_geomean", "warm-repeat"},
	{"greedy.initial_mapping_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"greedy.refine_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"greedy.schedule_ms", "ms", "latency_ms_geomean", "greedy-large"},
	{"swapnet.ata_ms", "ms", "latency_ms_geomean", "cold-hybrid"},
	{"swapnet.pattern_hit_ratio", "ratio", "latency_ms_slowest", "served-mixed"},
	{"verify.static_ms", "ms", "latency_ms_geomean", "warm-repeat"},
	{"verify.sema_ms", "ms", "latency_ms_geomean", "warm-repeat"},
	{"verify.failures", "count", "ops_per_s", "served-mixed"},
	{"circuit.measure_ms", "ms", "latency_ms_geomean", "warm-repeat"},
	{"circuit.qasm_encode_ms", "ms", "latency_ms_geomean", "served-mixed"},
	{"circuit.gates", "count", "cx_geomean", "cold-hybrid"},
	{"graph.canonical_ms", "ms", "latency_ms_geomean", "warm-repeat"},
	{"cachestore.put_ms", "ms", "latency_ms_slowest", "served-mixed"},
	{"cachestore.get_us", "us", "ops_per_s", "warm-repeat"},
	{"cachestore.decode_us", "us", "ops_per_s", "warm-repeat"},
	{"cachestore.hit_ratio", "ratio", "latency_ms_geomean", "served-mixed"},
	{"cachestore.mem_hits", "count", "ops_per_s", "warm-repeat"},
	{"cachestore.disk_hits", "count", "setup_s", "warm-repeat"},
	{"cachestore.misses", "count", "latency_ms_slowest", "served-mixed"},
	{"cachestore.corrupt", "count", "ops_per_s", "warm-repeat"},
	{"cachestore.disk_bytes", "bytes", "latency_ms_slowest", "served-mixed"},
	{"serve.decode_ms", "ms", "latency_ms_geomean", "served-mixed"},
	{"serve.encode_ms", "ms", "latency_ms_geomean", "served-mixed"},
	{"serve.handler_first_ms", "ms", "latency_ms_slowest", "served-mixed"},
	{"serve.handler_repeat_ms", "ms", "latency_ms_geomean", "served-mixed"},
	{"serve.handler_ms", "ms", "latency_ms_geomean", "served-mixed"},
	{"serve.queue_wait_ms", "ms", "latency_ms_slowest", "served-mixed"},
	{"serve.shed", "count", "ops_per_s", "served-mixed"},
	{"serve.degraded", "count", "depth_geomean", "served-mixed"},
	{"serve.pressure_elevated", "count", "latency_ms_slowest", "served-mixed"},
	{"serve.queue_max", "count", "latency_ms_slowest", "served-mixed"},
	{"bench.alloc_kb_per_op", "kB", "heap_live_mb", "served-mixed"},
	{"bench.late_ms_p99", "ms", "latency_ms_geomean", "served-mixed"},
}

const (
	// setupRuns is how many times a run sets its workload up; setup_s is the
	// median and the last set-up is the one timed.
	setupRuns = 3
	// rounds splits the timed window; each end-to-end value is the median
	// over rounds.
	rounds = 5
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string // full results JSON ("" = none)
	traceOut string // Chrome trace JSON of the traced run ("" = none)
	workdir  string
}

func main() {
	var cfg config
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "also write the full results (run header, per-round spread, per-instance rows) to this JSON file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1, write the run's spans as Chrome trace JSON to this file")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for cache stores")
	flag.Parse()

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Summary.Correct {
		os.Exit(1)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record written by --out.
type report struct {
	Header  header            `json:"header"`
	Summary summary           `json:"summary"`
	SetupS  []float64         `json:"setup_s_runs"`
	Spread  map[string]spread `json:"rounds,omitempty"`
	// LatencyMsP99 is the p99 of every operation of the window, speed-scaled.
	LatencyMsP99 float64            `json:"latency_ms_p99,omitempty"`
	LateMsP99    []float64          `json:"late_ms_p99_rounds,omitempty"`
	Speed        []float64          `json:"speed_factor_rounds,omitempty"`
	KernelUs     [][]float64        `json:"kernel_us_rounds,omitempty"`
	Instances    []instanceRow      `json:"instances"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Revision   string `json:"vcs_revision"`
}

// spread is one end-to-end metric's value in each round (each set-up for
// setup_s).
type spread struct {
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

// instanceRow is one instance's result over every timed sample, so a
// change's effect on each program shows.
type instanceRow struct {
	Name         string  `json:"name"`
	Samples      int     `json:"samples"`
	LatencyMsMed float64 `json:"latency_ms_median"`
	Depth        float64 `json:"depth"`
	CX           float64 `json:"cx"`
}

func run(cfg config, out io.Writer) (*report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, workdir: cfg.workdir, nproc: runtime.NumCPU()}
	rep := &report{Header: newHeader(cfg)}

	var sess session
	for i := 0; i < setupRuns; i++ {
		if sess != nil {
			sess.close()
		}
		e.fail = &failures{}
		runtime.GC()
		sp := &speedometer{}
		sp.burst()
		start := time.Now()
		s, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took := time.Since(start)
		sp.burst()
		rep.SetupS = append(rep.SetupS, took.Seconds()*sp.factor())
		sess = s
	}
	defer sess.close()

	window := time.Duration(cfg.seconds) * time.Second
	if _, _, err := sess.round(min(window/10, time.Second), &speedometer{}, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}

	var (
		values map[string]float64
		defs   []metricDef
		all    []sample
	)
	if cfg.trace == 1 {
		tr := newTracer()
		var err error
		if values, all, err = tracedRun(sess, window, tr, e); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		rep.Layers = values
		defs = perLayer
		if cfg.traceOut != "" {
			if err := tr.writeChrome(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Spread = map[string]spread{}
		var stats []roundStats
		for r := 0; r < rounds; r++ {
			st, samples, err := timedRound(sess, window/rounds, nil)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, r+1, err)
			}
			stats = append(stats, st)
			all = append(all, samples...)
			rep.Speed = append(rep.Speed, st.speed)
			rep.KernelUs = append(rep.KernelUs, st.kernelUs)
			if sess.layout().open {
				rep.LateMsP99 = append(rep.LateMsP99, st.lateP99)
			}
		}
		pooled := make([]float64, len(all))
		for i, s := range all {
			pooled[i] = durMs(s.lat)
		}
		rep.LatencyMsP99 = quantile(pooled, 0.99)
		values = map[string]float64{"setup_s": median(rep.SetupS)}
		for _, d := range endToEnd[1:] {
			var xs []float64
			for _, st := range stats {
				xs = append(xs, st.values[d.name])
			}
			rep.Spread[d.name] = spreadOf(xs)
			values[d.name] = median(xs)
		}
		rep.Spread["setup_s"] = spreadOf(rep.SetupS)
		defs = endToEnd
	}

	rep.Instances = instanceRows(sess.layout().classes, all)
	rep.Summary = summary{Attempted: len(all), Failed: e.fail.count(), Metrics: map[string]metricValue{}}
	rep.Summary.Correct = rep.Summary.Failed == 0 && len(all) > 0
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Summary.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s has no value\n", d.name)
			v = 0
		}
		rep.Summary.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, d.name, v, d.unit)
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func newHeader(cfg config) header {
	h := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

func instanceRows(names []string, samples []sample) []instanceRow {
	lat := make([][]float64, len(names))
	depth := make([][]float64, len(names))
	cx := make([][]float64, len(names))
	for _, s := range samples {
		lat[s.class] = append(lat[s.class], durMs(s.lat))
		if !s.failed {
			depth[s.class] = append(depth[s.class], float64(s.depth))
			cx[s.class] = append(cx[s.class], float64(s.cx))
		}
	}
	rows := make([]instanceRow, len(names))
	for i, n := range names {
		rows[i] = instanceRow{Name: n, Samples: len(lat[i])}
		if len(lat[i]) > 0 {
			rows[i].LatencyMsMed = median(lat[i])
		}
		if len(depth[i]) > 0 {
			rows[i].Depth, rows[i].CX = median(depth[i]), median(cx[i])
		}
	}
	return rows
}

func spreadOf(xs []float64) spread {
	return spread{Min: slices.Min(xs), Median: median(xs), Max: slices.Max(xs), Rounds: xs}
}

// tracer records the traced run: spans around the benchmark's calls into
// each layer, and each timed compile call's Timeline beside the call's own
// time. A nil tracer records nothing.
type tracer struct {
	tr *obs.Trace

	mu           sync.Mutex
	calls        int
	unattributed time.Duration
	phases       map[string]time.Duration // summed by phase name
	checkpoints  int
	predictRun   time.Duration
	predicted    int // calls that ran at least one checkpoint's prediction
	won          int // of those, calls whose winner is not pure greedy
}

func newTracer() *tracer { return &tracer{tr: obs.New(), phases: map[string]time.Duration{}} }

func (t *tracer) span(parent *obs.Span, name string, attrs ...obs.Attr) *obs.Span {
	if t == nil {
		return nil
	}
	return t.tr.StartSpan(parent, name, attrs...)
}

// compiled records one compile call's Timeline, and the share of its time
// that no phase of the Timeline accounts for.
func (t *tracer) compiled(call time.Duration, tl ataqc.Timeline) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	for _, p := range tl.Phases {
		call -= p.Duration
		t.phases[p.Name] += p.Duration
	}
	t.unattributed += call
	for _, c := range tl.Checkpoints {
		t.predictRun += c.Run
	}
	t.checkpoints += len(tl.Checkpoints)
	if len(tl.Checkpoints) > 0 {
		t.predicted++
		if tl.Winner != "greedy" {
			t.won++
		}
	}
}

// compileValues returns the core.* metrics: per compile call means of what
// compiled recorded.
func (t *tracer) compileValues() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := map[string]float64{}
	if t.calls == 0 {
		return v
	}
	calls := float64(t.calls)
	for _, name := range []string{"place", "greedy", "predict", "materialize", "verify"} {
		v["core."+name+"_ms"] = durMs(t.phases[name]) / calls
	}
	v["core.unattributed_ms"] = durMs(t.unattributed) / calls
	v["core.checkpoints"] = float64(t.checkpoints) / calls
	if t.checkpoints > 0 {
		v["core.predict_us_per_checkpoint"] = float64(t.predictRun.Nanoseconds()) / 1e3 / float64(t.checkpoints)
	}
	if t.predicted > 0 {
		v["core.predict_won_ratio"] = float64(t.won) / float64(t.predicted)
	}
	return v
}

func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun times the workload for half the window with spans around every
// operation and counts at its layer boundaries, then replays each layer on
// the workload's own inputs for the other half.
func tracedRun(sess session, window time.Duration, tr *tracer, e *env) (map[string]float64, []sample, error) {
	before := sess.counters()
	allocs := readMetric("/gc/heap/allocs:bytes")
	var all []sample
	var late []float64
	for r := 0; r < rounds; r++ {
		st, samples, err := timedRound(sess, window/2/rounds, tr)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, samples...)
		late = append(late, st.lateP99)
	}
	allocated := readMetric("/gc/heap/allocs:bytes") - allocs
	after := sess.counters()

	values, err := replay(context.Background(), sess.replayInputs(), sess.strategy(), window/2, tr, e)
	if err != nil {
		return nil, nil, err
	}
	for name, v := range tr.compileValues() {
		values[name] = v
	}
	for name, v := range after {
		if name == "serve.queue_max" {
			values[name] = v // a high-water mark, not a running count
			continue
		}
		values[name] = v - before[name]
	}
	hits := values["cachestore.mem_hits"] + values["cachestore.disk_hits"]
	if lookups := hits + values["cachestore.misses"]; lookups > 0 {
		values["cachestore.hit_ratio"] = hits / lookups
	}
	// The server's histograms give a mean per observation over the half.
	for _, h := range []string{"serve.queue_wait", "serve.handler"} {
		if n := values[h+".count"]; n > 0 {
			values[h+"_ms"] = values[h+".sum_us"] / 1e3 / n
		}
		delete(values, h+".count")
		delete(values, h+".sum_us")
	}
	if sess.layout().open {
		values["bench.late_ms_p99"] = median(late)
	}
	if len(all) > 0 {
		values["bench.alloc_kb_per_op"] = float64(allocated) / 1024 / float64(len(all))
	}
	values["verify.failures"] = float64(e.fail.count())
	return values, all, nil
}
