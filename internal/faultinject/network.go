package faultinject

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// NetworkFault is one hostile-client scenario driven against a running
// ataqcd daemon over a real connection. The robustness contract mirrors the
// compile-side one: whatever a client does on the wire — truncate a body,
// stall after the headers, ship an oversized or malformed graph, hang up
// mid-compile — the daemon must stay alive and, whenever it answers at all,
// answer with a structured JSON envelope. The CI chaos job and
// cmd/ataqc-bench -chaos both drive these same scenarios.
type NetworkFault struct {
	// Name identifies the scenario, grouped as "network/variant".
	Name string
	// Run drives the scenario against the daemon at baseURL (no trailing
	// slash) and reports what came back.
	Run func(ctx context.Context, baseURL string) NetworkReport
}

// NetworkReport is the outcome of one network fault.
type NetworkReport struct {
	Fault string
	// Status is the HTTP status the daemon answered with; 0 when the
	// scenario expects no response (client hangs up first) or the daemon
	// legitimately cut the connection (slow-loris defense).
	Status int
	// Structured reports whether a non-2xx body decoded as the service's
	// JSON error envelope. Meaningful only when Status >= 400.
	Structured bool
	// Err records a transport-level failure. Some scenarios expect one
	// (the daemon cutting off a stalled connection IS the defense); Check
	// decides whether it is acceptable.
	Err error
}

// Ok reports whether the daemon held the contract for this scenario:
// every error status carried a structured envelope, and 5xx statuses other
// than the typed 500/503 never appeared.
func (r NetworkReport) Ok() bool {
	if r.Status >= 400 && !r.Structured {
		return false
	}
	// 502/504 from the daemon itself would mean an unstructured proxy-style
	// failure; the service's own taxonomy uses them only with envelopes,
	// which the Structured check above already covers.
	return true
}

// NetworkFaults returns the hostile-client scenarios. Every scenario is
// self-contained: it builds its own connection, bounds its own time, and
// never takes the daemon down with it.
func NetworkFaults() []NetworkFault {
	return []NetworkFault{
		{Name: "network/truncated-body", Run: runTruncatedBody},
		{Name: "network/header-only-stall", Run: runHeaderOnlyStall},
		{Name: "network/oversized-graph", Run: runOversizedGraph},
		{Name: "network/malformed-json", Run: runMalformedJSON},
		{Name: "network/wrong-content-type", Run: runWrongContentType},
		{Name: "network/mid-request-cancel", Run: runMidRequestCancel},
		{Name: "network/unknown-field", Run: runUnknownField},
	}
}

// dialRaw opens a plain TCP connection to the daemon for scenarios that
// must misbehave below the http.Client abstraction.
func dialRaw(ctx context.Context, baseURL string) (net.Conn, error) {
	addr := strings.TrimPrefix(baseURL, "http://")
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// connDeadline bounds a raw connection by the scenario's fallback patience
// or the context deadline, whichever comes first, so a load level's clock
// also ends its in-flight faults.
func connDeadline(ctx context.Context, fallback time.Duration) time.Time {
	t := time.Now().Add(fallback)
	if d, ok := ctx.Deadline(); ok && d.Before(t) {
		return d
	}
	return t
}

// readStatus parses the status line of the daemon's response off a raw
// connection and decodes the body enough to judge structure.
func readStatus(conn net.Conn) (int, bool, error) {
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	structured := decodeEnvelope(resp.Body)
	return resp.StatusCode, structured, nil
}

// decodeEnvelope reports whether the body is the service's JSON error
// envelope ({"error":{"code":...}}) or a success object.
func decodeEnvelope(r io.Reader) bool {
	var m map[string]any
	if err := json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(&m); err != nil {
		return false
	}
	if e, ok := m["error"].(map[string]any); ok {
		_, hasCode := e["code"].(string)
		return hasCode
	}
	return len(m) > 0
}

// runTruncatedBody advertises a Content-Length it never delivers: the
// daemon's JSON decoder sees an unexpected EOF and must answer 400 (or cut
// the connection once the read deadline fires) without wedging a worker.
func runTruncatedBody(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/truncated-body"}
	conn, err := dialRaw(ctx, baseURL)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer conn.Close()
	_ = conn.SetDeadline(connDeadline(ctx, 10*time.Second))
	body := `{"arch":"grid","edges":[[0,1],[1,2]`
	fmt.Fprintf(conn, "POST /compile HTTP/1.1\r\nHost: ataqcd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body)+64, body)
	// Half-close the write side so the server sees EOF mid-body instead of
	// waiting out the advertised length.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	status, structured, err := readStatus(conn)
	rep.Status, rep.Structured = status, structured
	if err != nil {
		// A dropped connection is an acceptable answer to a liar.
		rep.Err = nil
	}
	return rep
}

// runHeaderOnlyStall sends a request line and then nothing: the daemon's
// ReadHeaderTimeout must reclaim the connection instead of letting a
// slow-loris fleet pin every socket.
func runHeaderOnlyStall(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/header-only-stall"}
	conn, err := dialRaw(ctx, baseURL)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer conn.Close()
	_ = conn.SetDeadline(connDeadline(ctx, 15*time.Second))
	fmt.Fprintf(conn, "POST /compile HTTP/1.1\r\nHost: ataqcd\r\n")
	// Stall: never finish the headers. The pass condition is that the
	// daemon hangs up on us (read returns EOF/reset) rather than waiting
	// forever; any structured 4xx is equally fine.
	status, structured, rerr := readStatus(conn)
	rep.Status, rep.Structured = status, structured
	if rerr != nil {
		rep.Err = nil // connection reclaimed — that is the defense working
	}
	return rep
}

// runOversizedGraph ships a body past the daemon's MaxBodyBytes cap and
// expects the typed 413.
func runOversizedGraph(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/oversized-graph"}
	var sb strings.Builder
	sb.WriteString(`{"arch":"grid","edges":[`)
	for i := 0; sb.Len() < 2<<20; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i+1)
	}
	sb.WriteString(`]}`)
	return postBody(ctx, baseURL, rep, "application/json", sb.String())
}

// Request bodies of the decoder faults, shared with the daemon's decoder
// fuzz target as seeds: syntactically broken JSON, and a typo'd option
// name that DisallowUnknownFields must reject.
const (
	MalformedJSONBody = `{"arch": "grid", "edges": [[0,1`
	UnknownFieldBody  = `{"arch":"grid","edges":[[0,1]],"strategyy":"greedy"}`
)

// runMalformedJSON sends syntactically broken JSON and expects a typed 400.
func runMalformedJSON(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/malformed-json"}
	return postBody(ctx, baseURL, rep, "application/json", MalformedJSONBody)
}

// runWrongContentType sends a non-JSON payload; the decoder rejects it with
// a typed 400 regardless of the declared type.
func runWrongContentType(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/wrong-content-type"}
	return postBody(ctx, baseURL, rep, "text/plain", "OPENQASM 2.0; include \"qelib1.inc\";")
}

// runUnknownField exploits DisallowUnknownFields: a typo'd option must fail
// loudly with a typed 400, never compile with silently-dropped settings.
func runUnknownField(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/unknown-field"}
	return postBody(ctx, baseURL, rep, "application/json", UnknownFieldBody)
}

// runMidRequestCancel abandons a compile in flight: the daemon must notice
// the dead client (request context cancellation), release the worker slot,
// and keep serving. No response is expected.
func runMidRequestCancel(ctx context.Context, baseURL string) NetworkReport {
	rep := NetworkReport{Fault: "network/mid-request-cancel"}
	cctx, cancel := context.WithCancel(ctx)
	body := `{"arch":"grid","edges":[[0,1],[1,2],[2,3],[0,2],[1,3],[0,3]]}`
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, baseURL+"/compile", strings.NewReader(body))
	if err != nil {
		cancel()
		rep.Err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, rerr := http.DefaultClient.Do(req)
		if rerr == nil {
			resp.Body.Close()
		}
	}()
	// Yank the request almost immediately — with some luck mid-queue or
	// mid-compile. Either way the daemon must survive it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done
	return rep
}

// postBody is the shared happy-path transport for scenarios whose hostility
// lives in the payload rather than the connection handling.
func postBody(ctx context.Context, baseURL string, rep NetworkReport, contentType, body string) NetworkReport {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/compile", strings.NewReader(body))
	if err != nil {
		rep.Err = err
		return rep
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer resp.Body.Close()
	rep.Status = resp.StatusCode
	rep.Structured = decodeEnvelope(resp.Body)
	return rep
}
