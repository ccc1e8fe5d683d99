package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/serve"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

// TestRunClosedLoop drives a short closed-loop level with a chaos arm
// against a live serving stack and checks the report adds up.
func TestRunClosedLoop(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := &WorkloadSpec{Mix: []MixSpec{
		{Arch: "grid", N: 9, Density: 0.5, Seed: 1},
		{Arch: "heavy-hex", N: 12, Density: 0.4, Seed: 4},
	}}
	bodies, err := spec.Bodies()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		URL:           ts.URL,
		Clients:       4,
		Duration:      2 * time.Second,
		ChaosFraction: 0.25,
		Seed:          7,
		Bodies:        bodies,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no successful traffic: %+v", rep)
	}
	if rep.Chaos.Sent == 0 {
		t.Fatalf("chaos arm never fired: %+v", rep)
	}
	if rep.Chaos.ContractViolations > 0 {
		t.Fatalf("daemon violated the chaos contract: %+v", rep.Chaos)
	}
	if rep.LatencyMs.P50 <= 0 || rep.LatencyMs.P99 < rep.LatencyMs.P50 {
		t.Fatalf("implausible latency quantiles: %+v", rep.LatencyMs)
	}
	if rep.LatencyMs.Max < rep.LatencyMs.P99 {
		t.Fatalf("max below p99: %+v", rep.LatencyMs)
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("achieved rps not computed: %+v", rep)
	}
}

// TestRunNeedsBodies: a level with nothing to send is an error, not a
// silent fallback to some other load.
func TestRunNeedsBodies(t *testing.T) {
	if _, err := Run(context.Background(), Config{URL: "http://127.0.0.1:0"}); err == nil {
		t.Fatal("Run without bodies succeeded")
	}
}

// TestRunCountsEveryOutcome drives a stub daemon whose answer depends on
// the body: a degraded 200, a 500, a 503 that never clears, and a 200
// without a trace ID. Each lands in its own report field, and the 503 is
// retried before it counts as shed.
func TestRunCountsEveryOutcome(t *testing.T) {
	const traceID = "0123456789abcdef0123456789abcdef"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if string(b) != "untraced" {
			w.Header().Set(telemetry.TraceHeader, traceID)
		}
		switch string(b) {
		case "fail":
			w.WriteHeader(http.StatusInternalServerError)
		case "busy":
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			io.WriteString(w, `{"degraded":true}`)
		}
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Clients:  2,
		Duration: 1500 * time.Millisecond,
		Seed:     3,
		Bodies:   []string{"ok", "fail", "busy", "untraced"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.OK == 0 || rep.Degraded != rep.OK {
		t.Fatalf("ok = %d, degraded = %d: every 200 here is degraded", rep.OK, rep.Degraded)
	}
	if rep.Errors["status_500"] == 0 {
		t.Fatalf("500s not counted: %+v", rep.Errors)
	}
	if rep.Shed == 0 || rep.Retries < maxRetries*rep.Shed {
		t.Fatalf("shed = %d after %d retries, want each shed after %d retries", rep.Shed, rep.Retries, maxRetries)
	}
	if rep.TraceIDViolations == 0 {
		t.Fatal("an answer without a trace ID went uncounted")
	}
}

// TestRunAccountsForEveryRequest cuts a level off while requests are in
// flight: a stub daemon holds some answers past the level's deadline and
// keeps shedding others, so requests end mid-exchange and mid-backoff.
// Every sent request must still land in exactly one outcome.
func TestRunAccountsForEveryRequest(t *testing.T) {
	const traceID = "0123456789abcdef0123456789abcdef"
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header().Set(telemetry.TraceHeader, traceID)
		switch string(b) {
		case "slow":
			select {
			case <-release:
			case <-r.Context().Done():
			}
		case "busy":
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		case "fail":
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		io.WriteString(w, `{}`)
	}))
	defer ts.Close()
	defer close(release)

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Clients:  4,
		Duration: 600 * time.Millisecond,
		Seed:     5,
		Bodies:   []string{"ok", "slow", "busy", "fail"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var errs int64
	for _, n := range rep.Errors {
		errs += n
	}
	if rep.Aborted == 0 {
		t.Fatalf("no request was cut off by the deadline: %+v", rep)
	}
	if got := rep.OK + rep.Shed + rep.Aborted + errs; got != rep.Sent {
		t.Fatalf("sent %d, but ok %d + shed %d + aborted %d + errors %d = %d",
			rep.Sent, rep.OK, rep.Shed, rep.Aborted, errs, got)
	}
}

// TestHistQuantile pins the bucket-interpolation math on a hand-built
// snapshot: 100 observations, 50 in (64,128], 49 in (128,256], 1 in the
// tail.
func TestHistQuantile(t *testing.T) {
	h := obs.HistogramSnapshot{
		Count: 100,
		Buckets: []obs.BucketCount{
			{Upper: 128, Count: 50},
			{Upper: 256, Count: 49},
			{Upper: 1024, Count: 1},
		},
	}
	if p50 := histQuantile(h, 900, 0.50); p50 < 1 || p50 > 128 {
		t.Fatalf("p50 = %g, want within the first bucket", p50)
	}
	if p90 := histQuantile(h, 900, 0.90); p90 <= 128 || p90 > 256 {
		t.Fatalf("p90 = %g, want within (128,256]", p90)
	}
	// The tail bucket is clamped to the observed max, not its nominal edge.
	if p100 := histQuantile(h, 900, 1.0); p100 > 900 {
		t.Fatalf("p100 = %g, want <= observed max 900", p100)
	}
	if q := histQuantile(obs.HistogramSnapshot{}, 0, 0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}

// TestHistQuantileEdgeCases pins the interpolation's degenerate shapes:
// empty histograms, a single populated bucket, and a p99 that lands in the
// unbounded overflow bucket (Upper < 0), which must clamp to the observed
// maximum instead of extrapolating to infinity.
func TestHistQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0 regardless of maxObserved.
	empty := obs.HistogramSnapshot{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := histQuantile(empty, 12345, q); got != 0 {
			t.Fatalf("empty histogram q=%g = %g, want 0", q, got)
		}
	}

	// Single bucket (0,128] with 4 observations: quantiles interpolate
	// linearly from the bucket's lower edge. Ranks 1 and 2 of 4 land at
	// exactly 1/4 and 1/2 of the bucket width.
	single := obs.HistogramSnapshot{
		Count:   4,
		Buckets: []obs.BucketCount{{Upper: 128, Count: 4}},
	}
	if got := histQuantile(single, 128, 0.25); got != 32 {
		t.Fatalf("single-bucket p25 = %g, want 32", got)
	}
	if got := histQuantile(single, 128, 0.50); got != 64 {
		t.Fatalf("single-bucket p50 = %g, want 64", got)
	}
	if got := histQuantile(single, 128, 1); got != 128 {
		t.Fatalf("single-bucket p100 = %g, want 128", got)
	}

	// p99 in the overflow bucket: 95 observations in (0,64], 5 in the
	// unbounded tail, observed max 500. The tail's upper edge must clamp
	// to 500, putting the estimate at lower + 0.8*(500-65) = 413.
	overflow := obs.HistogramSnapshot{
		Count: 100,
		Buckets: []obs.BucketCount{
			{Upper: 64, Count: 95},
			{Upper: -1, Count: 5},
		},
	}
	p99 := histQuantile(overflow, 500, 0.99)
	if p99 <= 64 || p99 > 500 {
		t.Fatalf("overflow p99 = %g, want within (64, 500]", p99)
	}
	if p99 < 412 || p99 > 414 {
		t.Fatalf("overflow p99 = %g, want ~413 (linear within the clamped tail)", p99)
	}
	if got := histQuantile(overflow, 500, 1); got != 500 {
		t.Fatalf("overflow p100 = %g, want clamped max 500", got)
	}
}
