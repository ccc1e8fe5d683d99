package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/obs"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// doRaw issues an arbitrary request and returns the response plus decoded
// JSON body (nil when the body is not JSON).
func doRaw(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

// checkTraceEcho asserts the response carries a valid trace ID header and,
// when the body is JSON with a traceId field, that the two agree.
func checkTraceEcho(t *testing.T, resp *http.Response, m map[string]any) string {
	t.Helper()
	id := resp.Header.Get(telemetry.TraceHeader)
	if !hex32.MatchString(id) {
		t.Fatalf("%s header %q is not a 32-hex trace id (status %d)",
			telemetry.TraceHeader, id, resp.StatusCode)
	}
	if m != nil {
		if body, ok := m["traceId"].(string); ok && body != id {
			t.Fatalf("body traceId %q != header %q", body, id)
		}
	}
	return id
}

// TestTraceIDOnEveryResponse drives each response class the service can
// produce — success, validation reject, method reject, panic 500, shed
// 429, draining 503, and the read-only endpoints — and asserts every one
// of them echoes a well-formed trace ID in the header and JSON body.
func TestTraceIDOnEveryResponse(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, AllowChaos: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := map[string]bool{}
	note := func(id string) {
		if ids[id] {
			t.Fatalf("trace id %s reused across requests", id)
		}
		ids[id] = true
	}

	resp, m := doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("success case status %d body %v", resp.StatusCode, m)
	}
	note(checkTraceEcho(t, resp, m))

	resp, m = doRaw(t, "POST", ts.URL+"/compile", `{{{`)
	if resp.StatusCode != 400 {
		t.Fatalf("invalid case status %d", resp.StatusCode)
	}
	note(checkTraceEcho(t, resp, m))

	resp, m = doRaw(t, "GET", ts.URL+"/compile", "")
	if resp.StatusCode != 405 {
		t.Fatalf("method case status %d", resp.StatusCode)
	}
	note(checkTraceEcho(t, resp, m))

	resp, m = doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]],"chaos":"panic"}`)
	if resp.StatusCode != 500 {
		t.Fatalf("panic case status %d body %v", resp.StatusCode, m)
	}
	note(checkTraceEcho(t, resp, m))

	for _, ep := range []string{"/healthz", "/readyz", "/statz", "/debugz"} {
		resp, m = doRaw(t, "GET", ts.URL+ep, "")
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", ep, resp.StatusCode)
		}
		note(checkTraceEcho(t, resp, m))
	}
	resp, _ = doRaw(t, "GET", ts.URL+"/metricsz", "")
	note(checkTraceEcho(t, resp, nil))
}

// TestTraceIDOnShedAndDraining covers the two remaining response classes:
// 429 from a full queue and 503 while draining.
func TestTraceIDOnShedAndDraining(t *testing.T) {
	srv, release, started := blockingServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postStatus(ts, blockerBody)
		}()
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for srv.Queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d", srv.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	resp, m := doRaw(t, "POST", ts.URL+"/compile", blockerBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d", resp.StatusCode)
	}
	checkTraceEcho(t, resp, m)
	close(release)
	wg.Wait()

	srv.draining.Store(true)
	resp, m = doRaw(t, "POST", ts.URL+"/compile", blockerBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d", resp.StatusCode)
	}
	checkTraceEcho(t, resp, m)
}

// TestDebugzTimelines compiles a problem and checks its flight-recorder
// entry: matching trace ID, a phase breakdown whose sum does not exceed
// the recorded elapsed time, queue wait, and the selector winner.
func TestDebugzTimelines(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, m := doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2],[2,3]]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("compile status %d body %v", resp.StatusCode, m)
	}
	id := checkTraceEcho(t, resp, m)

	resp, dm := doRaw(t, "GET", ts.URL+"/debugz?n=1", "")
	if resp.StatusCode != 200 {
		t.Fatalf("debugz status %d", resp.StatusCode)
	}
	recent, _ := dm["recent"].([]any)
	if len(recent) != 1 {
		t.Fatalf("debugz recent %v, want 1 record", dm["recent"])
	}
	rec, _ := recent[0].(map[string]any)
	if rec["traceId"] != id {
		t.Fatalf("recorded traceId %v != compile trace %s", rec["traceId"], id)
	}
	if rec["status"].(float64) != 200 || rec["outcome"] != "ok" {
		t.Fatalf("recorded outcome %v/%v", rec["status"], rec["outcome"])
	}
	if rec["winner"] == "" {
		t.Fatalf("no selector winner recorded: %v", rec)
	}
	phases, _ := rec["phases"].([]any)
	if len(phases) == 0 {
		t.Fatalf("no phase breakdown recorded: %v", rec)
	}
	elapsed := rec["elapsedMs"].(float64)
	var sum float64
	for _, p := range phases {
		pm := p.(map[string]any)
		if pm["name"] == "" || pm["ms"].(float64) < 0 {
			t.Fatalf("bad phase %v", pm)
		}
		sum += pm["ms"].(float64)
	}
	if sum > elapsed+1 { // +1ms slack for float truncation at phase edges
		t.Fatalf("phase sum %.3fms exceeds elapsed %.3fms", sum, elapsed)
	}
	if stats, _ := dm["stats"].(map[string]any); stats["committed"].(float64) < 1 {
		t.Fatalf("recorder stats %v", dm["stats"])
	}
}

// TestDebugzFilters exercises the status/degraded/slow query parameters
// against a mixed set of outcomes.
func TestDebugzFilters(t *testing.T) {
	srv := New(Config{Workers: 1, AllowChaos: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]],"chaos":"panic"}`)
	// A degraded compile: critical work budget forces the ATA floor.
	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]],"maxNodes":1}`)

	_, dm := doRaw(t, "GET", ts.URL+"/debugz?status=500", "")
	recent, _ := dm["recent"].([]any)
	if len(recent) != 1 {
		t.Fatalf("status=500 filter returned %d records", len(recent))
	}
	if rec := recent[0].(map[string]any); rec["errCode"] != string(CodeInternal) {
		t.Fatalf("panic record errCode %v, want %q", rec["errCode"], CodeInternal)
	}

	_, dm = doRaw(t, "GET", ts.URL+"/debugz?degraded=true", "")
	recent, _ = dm["recent"].([]any)
	if len(recent) != 1 {
		t.Fatalf("degraded=true filter returned %d records", len(recent))
	}
	rec := recent[0].(map[string]any)
	if rec["degraded"] != true || rec["degradeRung"] == "" {
		t.Fatalf("degraded record %v", rec)
	}

	if resp, _ := doRaw(t, "GET", ts.URL+"/debugz?status=nope", ""); resp.StatusCode != 400 {
		t.Fatalf("bad filter status %d, want 400", resp.StatusCode)
	}
}

// TestDebugzStreamNDJSON subscribes to the live stream and checks a
// subsequently compiled request arrives as one NDJSON line.
func TestDebugzStreamNDJSON(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debugz?stream=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	// Subscription races the POST below: give the server a moment to
	// register it before generating the record.
	time.Sleep(50 * time.Millisecond)
	cr, cm := doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	id := checkTraceEcho(t, cr, cm)

	select {
	case line := <-lines:
		var rec telemetry.JobRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stream line not JSON: %v: %q", err, line)
		}
		if rec.TraceID != id || rec.Status != 200 {
			t.Fatalf("streamed record %+v, want trace %s status 200", rec, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no record streamed")
	}
}

// TestDebugzStreamSSEEndsOnShutdown checks the SSE framing and that
// Shutdown closes live streams instead of leaving watchers hanging.
func TestDebugzStreamSSEEndsOnShutdown(t *testing.T) {
	srv := New(Config{Workers: 1, DrainTimeout: time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debugz?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	got := make(chan []string, 1)
	go func() {
		var all []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			all = append(all, sc.Text())
		}
		got <- all
	}()
	time.Sleep(50 * time.Millisecond)
	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	time.Sleep(50 * time.Millisecond)
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	select {
	case all := <-got:
		text := strings.Join(all, "\n")
		if !strings.Contains(text, "event: job") || !strings.Contains(text, "data: {") {
			t.Fatalf("SSE framing missing in:\n%s", text)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on shutdown")
	}
}

// TestPanicLandsCompleteFlightRecord is the half-written-slot regression
// test: a panic-injected compile must produce exactly one committed
// record with the final 500 status and internal code, and nothing may be
// left in flight.
func TestPanicLandsCompleteFlightRecord(t *testing.T) {
	srv := New(Config{Workers: 1, AllowChaos: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, m := doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]],"chaos":"panic"}`)
	if resp.StatusCode != 500 {
		t.Fatalf("status %d body %v", resp.StatusCode, m)
	}
	id := checkTraceEcho(t, resp, m)

	recent := srv.Flight().Recent(telemetry.Filter{})
	if len(recent) != 1 {
		t.Fatalf("%d committed records after panic, want 1", len(recent))
	}
	rec := recent[0]
	if rec.TraceID != id || rec.Status != 500 || rec.Outcome != "error" || rec.ErrCode != string(CodeInternal) {
		t.Fatalf("panic record %+v, want trace %s status 500 error/internal", rec, id)
	}
	// The queue wait landed before the panic; the record keeps it.
	if rec.QueueMs < 0 || rec.InFlight {
		t.Fatalf("panic record incomplete: %+v", rec)
	}
	if got := srv.Flight().Stats(); got.InFlight != 0 {
		t.Fatalf("jobs leaked in flight after panic: %+v", got)
	}
}

// TestMetricszPrometheusFormat scrapes metricsz after traffic and
// validates the exposition: content type, TYPE headers, per-endpoint
// labeled request counters, and histogram plumbing.
func TestMetricszPrometheusFormat(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	doRaw(t, "POST", ts.URL+"/compile", `{{{`)

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for sc.Scan() {
		line := sc.Text()
		sb.WriteString(line)
		sb.WriteByte('\n')
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE serve_http_requests counter",
		`serve_http_requests{endpoint="compile",status="200"} 1`,
		`serve_http_requests{endpoint="compile",status="400"} 1`,
		"# TYPE serve_http_latency_us histogram",
		`serve_http_latency_us_count{endpoint="compile"} 2`,
		"# TYPE serve_queue gauge",
		"serve_ok 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q in:\n%s", want, text)
		}
	}
}

// TestStatzSLOAndReadyzWarnings drives the error budget into burn with
// panic-injected 500s and checks the SLO surfaces: objectives in statz,
// burn warnings annotated on a still-ready readyz.
func TestStatzSLOAndReadyzWarnings(t *testing.T) {
	srv := New(Config{Workers: 1, AllowChaos: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]],"chaos":"panic"}`)
	}
	doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)

	resp, sm := doRaw(t, "GET", ts.URL+"/statz", "")
	if resp.StatusCode != 200 {
		t.Fatalf("statz status %d", resp.StatusCode)
	}
	slo, _ := sm["slo"].(map[string]any)
	if slo == nil {
		t.Fatalf("statz missing slo section: %v", sm)
	}
	objs, _ := slo["objectives"].([]any)
	var errObj map[string]any
	for _, o := range objs {
		om := o.(map[string]any)
		if om["name"] == "errors" {
			errObj = om
		}
	}
	if errObj == nil {
		t.Fatalf("no errors objective in %v", objs)
	}
	// 3 of 4 requests 5xx against a 0.1% budget: unambiguously burning.
	if errObj["burning"] != true || errObj["bad"].(float64) != 3 {
		t.Fatalf("errors objective %v, want burning with 3 bad", errObj)
	}
	if _, ok := sm["flight"].(map[string]any); !ok {
		t.Fatalf("statz missing flight section: %v", sm)
	}

	resp, rm := doRaw(t, "GET", ts.URL+"/readyz", "")
	if resp.StatusCode != 200 || rm["status"] != "ready" {
		t.Fatalf("burning daemon must stay ready, got %d %v", resp.StatusCode, rm)
	}
	warns, _ := rm["warnings"].([]any)
	if len(warns) == 0 {
		t.Fatalf("readyz missing SLO warnings: %v", rm)
	}
	if w, _ := warns[0].(string); !strings.Contains(fmt.Sprint(warns), "errors") || !strings.Contains(w, "burning") {
		t.Fatalf("warnings %v lack the burning errors objective", warns)
	}
}

// TestTraceSeedIsDeterministic pins that two servers with the same seed
// mint the same ID sequence — the reproducible-debugging contract.
func TestTraceSeedIsDeterministic(t *testing.T) {
	mk := func() string {
		srv := New(Config{Workers: 1, TraceSeed: 7})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, _ := doRaw(t, "GET", ts.URL+"/healthz", "")
		return resp.Header.Get(telemetry.TraceHeader)
	}
	if a, b := mk(), mk(); a != b || !hex32.MatchString(a) {
		t.Fatalf("seeded servers minted %q and %q, want identical valid ids", a, b)
	}
}

// stepClock is a fake obs.Clock that moves one hour forward on every
// read, so every interval it measures is a whole, nonzero number of
// hours: a length no real request takes.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Hour)
	return c.now
}

// TestServeReadsOnlyInjectedClock checks that every latency the server
// reports of a compile (the HTTP, queue-wait and compile histograms, the
// response, the flight record and the SLO tracker's latency objective)
// is measured on Config.Clock.
func TestServeReadsOnlyInjectedClock(t *testing.T) {
	srv := New(Config{
		Workers: 1,
		Clock:   &stepClock{now: time.Unix(1e9, 0)},
		SLO:     telemetry.SLOConfig{Window: 1e4 * time.Hour, Latency: time.Minute},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, m := doRaw(t, "POST", ts.URL+"/compile", `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("compile status %d body %v", resp.StatusCode, m)
	}
	hourUs := time.Hour.Microseconds()
	hours := func(what string, us int64) int64 {
		t.Helper()
		if us <= 0 || us%hourUs != 0 {
			t.Fatalf("%s = %d µs, want a whole number of fake-clock hours", what, us)
		}
		return us / hourUs
	}
	hists := srv.Metrics().Snapshot().Histograms
	sum := func(name string) int64 {
		t.Helper()
		h, ok := hists[name]
		if !ok || h.Count != 1 {
			t.Fatalf("histogram %s = %+v, want one observation", name, h)
		}
		return h.Sum
	}
	httpH := hours("serve.http.latency_us", sum(obs.Labeled("serve.http.latency_us",
		obs.Label{Key: "endpoint", Value: "compile"})))
	waitH := hours("serve.queue_wait_us", sum("serve.queue_wait_us"))
	compileH := hours("serve.latency_us", sum("serve.latency_us"))
	if httpH <= waitH+compileH {
		t.Fatalf("request took %dh, not more than its %dh queue wait plus %dh compile", httpH, waitH, compileH)
	}
	if got := m["elapsedMs"].(float64); got != float64(compileH*hourUs)/1e3 {
		t.Fatalf("response elapsedMs = %v, want the compile's %dh", got, compileH)
	}

	_, dm := doRaw(t, "GET", ts.URL+"/debugz?n=1", "")
	recent, _ := dm["recent"].([]any)
	if len(recent) != 1 {
		t.Fatalf("debugz recent %v, want 1 record", dm["recent"])
	}
	rec := recent[0].(map[string]any)
	if flightH := hours("flight elapsedMs", int64(rec["elapsedMs"].(float64)*1e3)); flightH < httpH {
		t.Fatalf("flight record spans %dh, less than the request's %dh", flightH, httpH)
	}

	_, sm := doRaw(t, "GET", ts.URL+"/statz", "")
	objs, _ := sm["slo"].(map[string]any)["objectives"].([]any)
	for _, o := range objs {
		if om := o.(map[string]any); om["name"] == "latency" {
			if om["bad"].(float64) != 1 {
				t.Fatalf("latency objective %v, want the hours-long request counted slow", om)
			}
			return
		}
	}
	t.Fatalf("no latency objective in %v", objs)
}
