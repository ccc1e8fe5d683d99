package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/greedy"
)

// post sends a JSON body to the server and decodes the response envelope.
func post(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, m
}

// postStatus is the goroutine-safe variant: no t.Fatal, just the status
// code (0 on transport error). Concurrency tests use it from workers.
func postStatus(ts *httptest.Server, body string) int {
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// errCode digs the machine-readable code out of an error envelope.
func errCode(t *testing.T, m map[string]any) string {
	t.Helper()
	e, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", m)
	}
	code, _ := e["code"].(string)
	return code
}

func TestCompileSuccess(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2}).Handler())
	defer ts.Close()
	edges := ataqc.RandomProblem(16, 0.3, 1).InteractionList()
	body, _ := json.Marshal(CompileRequest{Arch: "grid", Edges: edges})
	status, m := post(t, ts, string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d, body %v", status, m)
	}
	if d, _ := m["depth"].(float64); d <= 0 {
		t.Fatalf("depth %v, want > 0", m["depth"])
	}
	if p, _ := m["pressure"].(float64); p != PressureRelaxed {
		t.Fatalf("pressure %v on an idle server, want %d", m["pressure"], PressureRelaxed)
	}
	if _, ok := m["initial"].([]any); !ok {
		t.Fatalf("missing initial mapping in %v", m)
	}
}

// TestErrorTaxonomy drives the full service boundary with every rejection
// class and asserts the (status, code) pair for each — the table IS the
// API contract.
func TestErrorTaxonomy(t *testing.T) {
	srv := New(Config{Workers: 2, MaxBodyBytes: 4096, MaxQubits: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	grid9 := `"arch":"grid","edges":[[0,1],[1,2],[2,3]]`
	cases := []struct {
		name   string
		body   string
		status int
		code   Code
	}{
		{"garbage-json", `{{{`, 400, CodeInvalidRequest},
		{"unknown-field", `{` + grid9 + `,"bogus":1}`, 400, CodeInvalidRequest},
		{"trailing-data", `{` + grid9 + `}{}`, 400, CodeInvalidRequest},
		{"missing-arch", `{"edges":[[0,1]]}`, 400, CodeInvalidRequest},
		{"unknown-arch", `{"arch":"warp","edges":[[0,1]]}`, 400, CodeInvalidRequest},
		{"unknown-strategy", `{` + grid9 + `,"strategy":"warp-drive"}`, 400, CodeInvalidRequest},
		{"empty-problem", `{"arch":"grid","edges":[]}`, 400, CodeInvalidRequest},
		{"self-loop", `{"arch":"grid","edges":[[2,2]]}`, 400, CodeInvalidRequest},
		{"negative-vertex", `{"arch":"grid","edges":[[-1,2]]}`, 400, CodeInvalidRequest},
		{"vertex-above-limit", `{"arch":"grid","edges":[[0,99]]}`, 400, CodeInvalidRequest},
		{"alpha-out-of-range", `{` + grid9 + `,"alpha":1.5}`, 400, CodeInvalidRequest},
		{"negative-timeout", `{` + grid9 + `,"timeoutMs":-1}`, 400, CodeInvalidRequest},
		{"workers-out-of-range", `{` + grid9 + `,"workers":999}`, 400, CodeInvalidRequest},
		{"problem-wider-than-device", `{"arch":"mumbai","n":27,"edges":[[0,40]]}`, 400, CodeInvalidRequest},
		{"custom-without-couplings", `{"arch":"custom","n":4,"edges":[[0,1]]}`, 400, CodeInvalidRequest},
		{"custom-bad-coupling", `{"arch":"custom","n":3,"couplings":[[0,7]],"edges":[[0,1]]}`, 400, CodeInvalidRequest},
		{"chaos-disabled", `{` + grid9 + `,"chaos":"panic"}`, 400, CodeInvalidRequest},
		{"oversized-body", `{` + grid9 + `,"strategy":"` + strings.Repeat("x", 8192) + `"}`, 413, CodePayloadTooLarge},
		// Compile-path rejections: the coupling graph is the problem.
		{"unreachable-islands",
			`{"arch":"custom","n":4,"couplings":[[0,1],[2,3]],"edges":[[0,2]],"strategy":"greedy"}`,
			422, CodeUnreachable},
		{"hybrid-on-irregular",
			`{"arch":"custom","n":4,"couplings":[[0,1],[1,2],[2,3],[3,0]],"edges":[[0,2],[1,3]]}`,
			422, CodeUncompilable},
		// Budget exhaustion with no degradation floor: greedy on an
		// irregular device cannot fall back to the structured pattern.
		{"budget-exhausted-no-floor",
			`{"arch":"custom","n":6,"couplings":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,3]],"edges":[[0,4],[1,5],[2,4]],"strategy":"greedy","maxNodes":1}`,
			504, CodeBudgetExhausted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, m := post(t, ts, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %v)", status, tc.status, m)
			}
			if got := errCode(t, m); got != string(tc.code) {
				t.Fatalf("code %q, want %q", got, tc.code)
			}
		})
	}

	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/compile")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
}

// TestClassify pins the error→(status, code) mapping for the classes that
// are awkward to reach through HTTP (cancellation, internal panics).
func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   Code
	}{
		{"canceled", context.Canceled, StatusClientClosedRequest, CodeClientClosed},
		{"wrapped-canceled", fmt.Errorf("core: compile interrupted: %w", context.Canceled), StatusClientClosedRequest, CodeClientClosed},
		{"deadline", context.DeadlineExceeded, 504, CodeDeadline},
		{"budget", fmt.Errorf("x: %w", core.ErrBudgetExhausted), 504, CodeBudgetExhausted},
		{"internal", fmt.Errorf("%w: panic: boom", core.ErrInternal), 500, CodeInternal},
		{"unreachable", fmt.Errorf("g: %w", greedy.ErrUnreachable), 422, CodeUnreachable},
		{"no-progress", fmt.Errorf("g: %w", greedy.ErrNoProgress), 422, CodeUncompilable},
		{"unknown-compile-error", errors.New("core: architecture ring has no structured pattern"), 422, CodeUncompilable},
		// Interrupt wrapping a node-budget trip classifies as the budget,
		// not the interrupt: the budget is the actionable cause.
		{"interrupt-wrapping-budget",
			fmt.Errorf("%w at cycle 3: %w", greedy.ErrInterrupted, fmt.Errorf("%w (2 > 1)", core.ErrBudgetExhausted)),
			504, CodeBudgetExhausted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ae := classify(tc.err)
			if ae.Status != tc.status || ae.Code != tc.code {
				t.Fatalf("classify(%v) = (%d, %s), want (%d, %s)", tc.err, ae.Status, ae.Code, tc.status, tc.code)
			}
		})
	}
}

// blockingServer returns a server whose 2-qubit compiles block until
// release is closed, plus a started channel that receives one token per
// blocked compile — the deterministic scaffolding for backlog tests.
func blockingServer(cfg Config) (*Server, chan struct{}, chan struct{}) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	cfg.Compile = func(ctx context.Context, dev *ataqc.Device, prob *ataqc.Problem, opts ataqc.Options) (*ataqc.Result, error) {
		if prob.Qubits() == 2 {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return ataqc.CompileContext(ctx, dev, prob, opts)
	}
	return New(cfg), release, started
}

const blockerBody = `{"arch":"line","n":2,"edges":[[0,1]]}`

func TestAdmissionControlSheds(t *testing.T) {
	srv, release, started := blockingServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- postStatus(ts, blockerBody)
		}()
	}
	<-started // one blocker holds the worker slot
	// Wait for the second to be admitted into the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d", srv.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Capacity (workers 1 + queue 1) is full: the next arrival is shed.
	status, m := post(t, ts, blockerBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %v)", status, m)
	}
	if got := errCode(t, m); got != string(CodeOverloaded) {
		t.Fatalf("code %q, want %q", got, CodeOverloaded)
	}
	if srv.Metrics().Counter("serve.shed").Value() != 1 {
		t.Fatalf("shed counter %d, want 1", srv.Metrics().Counter("serve.shed").Value())
	}

	close(release)
	wg.Wait()
	close(results)
	for status := range results {
		if status != http.StatusOK {
			t.Fatalf("admitted request finished %d, want 200", status)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	srv := New(Config{Workers: 1, AllowChaos: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, m := post(t, ts, `{"arch":"grid","edges":[[0,1],[1,2]],"chaos":"panic"}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %v)", status, m)
	}
	if got := errCode(t, m); got != string(CodeInternal) {
		t.Fatalf("code %q, want %q", got, CodeInternal)
	}
	if n := srv.Metrics().Counter("serve.panics").Value(); n != 1 {
		t.Fatalf("panic counter %d, want 1", n)
	}

	// The daemon survived: the very next compile succeeds and the worker
	// slot the panicking request held was returned.
	status, m = post(t, ts, `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	if status != http.StatusOK {
		t.Fatalf("post-panic status %d, want 200 (body %v)", status, m)
	}
	if srv.Queued() != 0 {
		t.Fatalf("queued %d after panic, want 0 (slot leak)", srv.Queued())
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	srv, release, started := blockingServer(Config{Workers: 1, QueueDepth: 2, DrainTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() { done <- postStatus(ts, blockerBody) }()
	<-started

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	// Draining flips readiness and rejects new work with a structured 503.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d while draining, want 503", resp.StatusCode)
	}
	status, m := post(t, ts, blockerBody)
	if status != http.StatusServiceUnavailable || errCode(t, m) != string(CodeDraining) {
		t.Fatalf("new work during drain: status %d code %v, want 503 draining", status, m)
	}
	// Liveness stays green while draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while draining, want 200", resp.StatusCode)
	}

	// The in-flight job survives the drain and completes.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", status)
	}
}

func TestShutdownDeadlineReportsStragglers(t *testing.T) {
	srv, release, started := blockingServer(Config{Workers: 1, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		postStatus(ts, blockerBody)
		close(done)
	}()
	<-started
	if err := srv.Shutdown(context.Background()); err == nil {
		t.Fatal("shutdown returned nil with a straggler in flight")
	}
	close(release)
	<-done
}

func TestHealthEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz", "/statz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func TestStatzReportsCounters(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post(t, ts, `{"arch":"grid","edges":[[0,1],[1,2]]}`)
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body.Bytes(), &m); err != nil {
		t.Fatalf("statz JSON: %v", err)
	}
	if m.Counters["serve.ok"] != 1 || m.Counters["serve.requests"] != 1 {
		t.Fatalf("statz counters %v, want serve.ok=1 serve.requests=1", m.Counters)
	}
}

// TestDeviceRejectionMessages pins the 400 messages of the architecture
// lookup, which clients match on.
func TestDeviceRejectionMessages(t *testing.T) {
	for _, tc := range []struct {
		req  CompileRequest
		want string
	}{
		{CompileRequest{Arch: "warp"}, `unknown architecture "warp"`},
		{CompileRequest{}, "arch is required"},
		{CompileRequest{Arch: "custom", N: 4}, "custom architecture requires couplings"},
		{CompileRequest{Arch: "custom", Couplings: [][2]int{{0, 1}}}, "custom architecture requires n"},
	} {
		_, err := tc.req.device(4)
		var apiErr *apiError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Message != tc.want {
			t.Fatalf("arch %q: err = %v, want 400 %q", tc.req.Arch, err, tc.want)
		}
	}
	for _, family := range []string{"line", "grid", "sycamore", "heavy-hex", "heavyhex", "hexagon", "mumbai"} {
		if dev, err := (&CompileRequest{Arch: family}).device(8); err != nil || dev.Qubits() < 8 {
			t.Fatalf("%s: %v", family, err)
		}
	}
}
