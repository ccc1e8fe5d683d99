package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// buildFixture constructs a small deterministic trace on a fake clock:
// a root compile span, a greedy child, a predict child with one worker
// lane carrying a task span and a cache-hit event, plus a few metrics.
func buildFixture() *Trace {
	clk := newFakeClock(time.Millisecond)
	tr := NewWithClock(clk)
	root := tr.StartSpan(nil, "compile", Str("method", "hybrid"))
	greedy := tr.StartSpan(root, "greedy")
	greedy.End()
	predict := tr.StartSpan(root, "predict")
	w := tr.StartSpan(predict, "worker", Int("worker", 1))
	w.SetLane(1)
	task := tr.StartSpan(w, "predictATA", Int("checkpoint", 0))
	tr.Event(task, "cache.hit", Str("key", "grid8"))
	task.End()
	w.End()
	predict.End()
	root.End()
	m := tr.Metrics()
	m.Counter("cache.hits").Add(3)
	m.Counter("cache.misses").Add(1)
	m.Gauge("solver.open_set").Set(42)
	m.Histogram("pool.wait_us").Observe(5)
	m.Histogram("pool.wait_us").Observe(9)
	return tr
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.Unit)
	}
	// 5 spans + 1 instant event + 2 counters + 1 gauge as "C" samples.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("got %d trace events, want 9", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		}
	}
	if phases["X"] != 5 || phases["i"] != 1 || phases["C"] != 3 {
		t.Fatalf("phase counts = %v, want X:5 i:1 C:3", phases)
	}
}

func TestWriteChromeNilTrace(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-trace Chrome output invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil trace produced %d events", len(doc.TraceEvents))
	}
}

func TestWriteJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("JSONL line invalid: %v\n%s", err, sc.Text())
		}
		ty, _ := rec["type"].(string)
		types[ty]++
		if _, ok := rec["name"].(string); !ok {
			t.Fatalf("record missing name: %v", rec)
		}
	}
	if types["span"] != 5 || types["event"] != 1 || types["counter"] != 2 ||
		types["gauge"] != 1 || types["hist"] != 1 {
		t.Fatalf("record type counts = %v", types)
	}
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// The fake clock steps 1ms per read, so every duration below is exact.
	want := strings.Join([]string{
		"compile 10ms method=hybrid",
		"  greedy 1ms",
		"  predict 6ms",
		"    worker 4ms worker=1 lane=1",
		"      predictATA 2ms checkpoint=0 lane=1",
		"        @ cache.hit (t=7ms) key=grid8 lane=1",
		"metrics:",
		"  counter cache.hits = 3",
		"  counter cache.misses = 1",
		"  gauge solver.open_set = 42 (max 42)",
		"  hist pool.wait_us: count=2 sum=14 <=7:1 <=15:1",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("text output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteTextNilTrace(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil trace text output = %q, want empty", buf.String())
	}
}

func TestExportersDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildFixture().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildFixture().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces must export byte-identical Chrome JSON")
	}
}

// TestWriteFormatDispatches: every listed format reaches its exporter
// byte for byte, and an unlisted one is an error.
func TestWriteFormatDispatches(t *testing.T) {
	tr := buildFixture()
	exporters := map[string]func(*bytes.Buffer) error{
		"chrome": func(b *bytes.Buffer) error { return tr.WriteChrome(b) },
		"jsonl":  func(b *bytes.Buffer) error { return tr.WriteJSONL(b) },
		"text":   func(b *bytes.Buffer) error { return tr.WriteText(b) },
	}
	if len(Formats) != len(exporters) {
		t.Fatalf("Formats = %v, want the %d exporters", Formats, len(exporters))
	}
	for _, f := range Formats {
		var got, want bytes.Buffer
		if err := tr.WriteFormat(&got, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := exporters[f](&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteFormat output differs from its exporter", f)
		}
	}
	if err := tr.WriteFormat(io.Discard, "svg"); err == nil || !strings.Contains(err.Error(), "svg") {
		t.Fatalf("unknown format: err = %v, want one naming svg", err)
	}
}
