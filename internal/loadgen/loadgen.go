// Package loadgen drives a running ataqcd daemon with configurable load:
// a fleet of concurrent clients at a target aggregate request rate, the
// compile problems of a JSON workload spec (WorkloadSpec), client-side
// retry with jittered exponential backoff on 429/503, and an optional
// chaos arm that weaves the internal/faultinject network faults
// (truncated bodies, header stalls, malformed payloads, mid-request
// cancellations) into the request stream.
//
// Latency is recorded in internal/obs log-bucket histograms; Report
// extracts p50/p90/p99 by interpolating within buckets. cmd/ataqc-bench is
// the CLI wrapper that sweeps load levels and writes BENCH_service.json.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ata-pattern/ataqc/internal/faultinject"
	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

// Config sizes one load level.
type Config struct {
	// URL is the daemon base URL, e.g. http://127.0.0.1:8080.
	URL string
	// Clients is the number of concurrent request loops (default 4).
	Clients int
	// RPS is the target aggregate arrival rate across all clients; 0 runs
	// closed-loop (each client fires as soon as the previous answer lands).
	RPS float64
	// Duration bounds the level (default 10s).
	Duration time.Duration
	// ChaosFraction is the probability that a slot becomes a hostile-client
	// scenario (faultinject.NetworkFaults) instead of a compile.
	ChaosFraction float64
	// Seed makes the body sampling, chaos schedule, and backoff jitter
	// reproducible.
	Seed int64
	// Bodies are the compile-request bodies; each request samples one
	// uniformly. WorkloadSpec.Configs builds them from a spec file, and
	// Run refuses a level without them.
	Bodies []string
}

// The client's retry and timeout policy.
const (
	// maxRetries bounds the 429/503 retry loop per request.
	maxRetries = 3
	// baseBackoff is the first retry delay, doubled per attempt with
	// +-50% jitter.
	baseBackoff = 50 * time.Millisecond
	// exchangeTimeout caps one HTTP exchange.
	exchangeTimeout = 60 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	return c
}

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// ChaosSummary reports the hostile-client arm of a level.
type ChaosSummary struct {
	// Sent counts chaos scenarios driven.
	Sent int64 `json:"sent"`
	// ContractViolations counts scenarios where the daemon answered an
	// error status without the structured JSON envelope. Must be zero.
	ContractViolations int64 `json:"contractViolations"`
	// Violated lists the offending scenario names (deduplicated).
	Violated []string `json:"violated,omitempty"`
}

// Report is the outcome of one load level.
type Report struct {
	TargetRPS   float64 `json:"targetRps"`
	AchievedRPS float64 `json:"achievedRps"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"durationSec"`
	// Sent counts compile attempts (retries of the same request are not
	// re-counted; chaos scenarios are counted under Chaos.Sent instead).
	// Each lands in exactly one outcome: Sent = OK + Shed + Aborted + the
	// sum of Errors.
	Sent int64 `json:"sent"`
	// OK counts 200 answers; Degraded is the subset compiled on the
	// pressure ladder's lower rungs.
	OK       int64 `json:"ok"`
	Degraded int64 `json:"degraded"`
	// Shed counts final 429/503 outcomes after the retry budget; Retries
	// counts individual retry attempts.
	Shed    int64 `json:"shed"`
	Retries int64 `json:"retries"`
	// Aborted counts requests the level's deadline cut off, mid-exchange
	// or mid-backoff; they are not failures.
	Aborted int64 `json:"aborted"`
	// Errors histograms every other final status ("status_500": n) plus
	// "transport" for connection-level failures.
	Errors map[string]int64 `json:"errors,omitempty"`
	// TraceIDViolations counts responses (any status, retries included)
	// that arrived without a well-formed X-Ataqc-Trace-Id header. The
	// telemetry contract says every response carries one, so the bench
	// gate fails on a non-zero count.
	TraceIDViolations int64 `json:"traceIdViolations"`
	// LatencyMs covers successful (2xx) exchanges only, measured
	// client-side including queue wait.
	LatencyMs Quantiles    `json:"latencyMs"`
	Chaos     ChaosSummary `json:"chaos"`
}

// Run drives one load level and reports it. The context aborts early.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Bodies) == 0 {
		return nil, errors.New("loadgen: no request bodies to send")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	reg := obs.NewRegistry()
	var (
		wg         sync.WaitGroup
		violatedMu sync.Mutex
		violated   = map[string]bool{}
	)
	client := &http.Client{Timeout: exchangeTimeout}
	faults := faultinject.NetworkFaults()
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			var interval time.Duration
			if cfg.RPS > 0 {
				interval = time.Duration(float64(cfg.Clients) / cfg.RPS * float64(time.Second))
			}
			next := time.Now()
			for {
				if interval > 0 {
					d := time.Until(next)
					if d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
					next = next.Add(interval)
				}
				if ctx.Err() != nil {
					return
				}
				if cfg.ChaosFraction > 0 && rng.Float64() < cfg.ChaosFraction {
					f := faults[rng.Intn(len(faults))]
					rep := f.Run(ctx, strings.TrimSuffix(cfg.URL, "/"))
					reg.Counter("chaos.sent").Add(1)
					if !rep.Ok() {
						reg.Counter("chaos.violations").Add(1)
						violatedMu.Lock()
						violated[rep.Fault] = true
						violatedMu.Unlock()
					}
					continue
				}
				body := cfg.Bodies[rng.Intn(len(cfg.Bodies))]
				doRequest(ctx, client, cfg.URL, rng, reg, body)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := buildReport(reg, cfg, elapsed)
	violatedMu.Lock()
	for name := range violated {
		rep.Chaos.Violated = append(rep.Chaos.Violated, name)
	}
	violatedMu.Unlock()
	sort.Strings(rep.Chaos.Violated)
	return rep, nil
}

// doRequest sends one compile body, retrying 429/503 with jittered
// exponential backoff, and records the final outcome.
func doRequest(ctx context.Context, client *http.Client, url string, rng *rand.Rand, reg *obs.Registry, body string) {
	reg.Counter("sent").Add(1)
	backoff := baseBackoff
	for attempt := 0; ; attempt++ {
		start := time.Now()
		status, degraded, traceOK, err := postOnce(ctx, client, url, body)
		elapsed := time.Since(start)
		if err == nil && !traceOK {
			reg.Counter("trace.violations").Add(1)
		}
		switch {
		case err != nil:
			if ctx.Err() != nil {
				reg.Counter("aborted").Add(1) // level over: not a failure
				return
			}
			reg.Counter("transport").Add(1)
			return
		case status == http.StatusOK:
			reg.Counter("ok").Add(1)
			if degraded {
				reg.Counter("degraded").Add(1)
			}
			reg.Histogram("latency_us").Observe(elapsed.Microseconds())
			reg.Gauge("latency_max_us").Set(elapsed.Microseconds()) // Max tracks the high-water mark
			return
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			if attempt >= maxRetries {
				reg.Counter("shed").Add(1)
				return
			}
			reg.Counter("retries").Add(1)
			// Full jitter around the exponential schedule: 0.5x..1.5x.
			sleep := time.Duration(float64(backoff) * (0.5 + rng.Float64()))
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				reg.Counter("aborted").Add(1)
				return
			}
		default:
			reg.Counter(fmt.Sprintf("status_%d", status)).Add(1)
			return
		}
	}
}

// postOnce performs a single exchange, reporting the status, whether the
// answer was a degraded compile, and whether it carried a well-formed
// trace ID header (checked on EVERY status — the shed/error paths are
// exactly where a missing ID would go unnoticed).
func postOnce(ctx context.Context, client *http.Client, url, body string) (int, bool, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(url, "/")+"/compile", strings.NewReader(body))
	if err != nil {
		return 0, false, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, false, err
	}
	defer resp.Body.Close()
	traceOK := telemetry.TraceID(resp.Header.Get(telemetry.TraceHeader)).Valid()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return resp.StatusCode, false, traceOK, nil
	}
	var m struct {
		Degraded bool `json:"degraded"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m.Degraded, traceOK, nil
}

// buildReport converts the registry into the level report.
func buildReport(reg *obs.Registry, cfg Config, elapsed time.Duration) *Report {
	snap := reg.Snapshot()
	rep := &Report{
		TargetRPS:         cfg.RPS,
		Clients:           cfg.Clients,
		DurationSec:       elapsed.Seconds(),
		Sent:              snap.Counters["sent"],
		OK:                snap.Counters["ok"],
		Degraded:          snap.Counters["degraded"],
		Shed:              snap.Counters["shed"],
		Retries:           snap.Counters["retries"],
		Aborted:           snap.Counters["aborted"],
		TraceIDViolations: snap.Counters["trace.violations"],
		Chaos: ChaosSummary{
			Sent:               snap.Counters["chaos.sent"],
			ContractViolations: snap.Counters["chaos.violations"],
		},
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Sent+rep.Chaos.Sent) / elapsed.Seconds()
	}
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "status_") || name == "transport" {
			if rep.Errors == nil {
				rep.Errors = map[string]int64{}
			}
			rep.Errors[name] = n
		}
	}
	if h, ok := snap.Histograms["latency_us"]; ok {
		maxUs := snap.Gauges["latency_max_us"].Max
		rep.LatencyMs = Quantiles{
			P50: histQuantile(h, maxUs, 0.50) / 1e3,
			P90: histQuantile(h, maxUs, 0.90) / 1e3,
			P99: histQuantile(h, maxUs, 0.99) / 1e3,
			Max: float64(maxUs) / 1e3,
		}
	}
	return rep
}

// histQuantile estimates the q-quantile (in the histogram's native unit)
// from the log-bucket snapshot, interpolating linearly within the bucket
// that crosses the target rank; maxObserved bounds the unbounded tail
// bucket and caps every estimate.
func histQuantile(h obs.HistogramSnapshot, maxObserved int64, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum int64
	lower := float64(0)
	for _, b := range h.Buckets {
		upper := float64(b.Upper)
		if b.Upper < 0 || upper > float64(maxObserved) {
			upper = float64(maxObserved)
		}
		if float64(cum+b.Count) >= target {
			frac := (target - float64(cum)) / float64(b.Count)
			est := lower + frac*(upper-lower)
			if est < lower {
				est = lower
			}
			return est
		}
		cum += b.Count
		lower = upper + 1
	}
	return float64(maxObserved)
}
