package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	ataqc "github.com/ata-pattern/ataqc"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

// TestBenchmarkJSON lints BENCHMARK.json against its schema and against the
// workloads and metrics this program runs and prints, so the two cannot
// drift apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, raw); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("top-level keys %s", got)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Fatalf("command has %d strings", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Fatalf("paths has %d entries", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Fatalf("run_seconds %d", bf.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var rawWorkloads, rawE2E, rawLayer []json.RawMessage
	for key, dst := range map[string]*[]json.RawMessage{"workloads": &rawWorkloads, "end_to_end": &rawE2E, "per_layer": &rawLayer} {
		if err := json.Unmarshal(top[key], dst); err != nil {
			t.Fatal(err)
		}
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if got := keysOf(t, rawWorkloads[i]); got != "name,why" {
			t.Errorf("workload %s keys %s", w.Name, got)
		}
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", n, len(endToEnd))
	}
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if got := keysOf(t, rawE2E[i]); got != "better,bound,name,unit" {
			t.Errorf("metric %s keys %s", m.Name, got)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: unit %q better %q bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if got := keysOf(t, rawLayer[i]); got != "better,name,unit" {
			t.Errorf("metric %s keys %s", m.Name, got)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, d := range perLayer {
		if !seen[d.moves] {
			t.Errorf("per-layer metric %s should move %q, which is no end-to-end metric", d.name, d.moves)
		}
		if !seen[d.on] {
			t.Errorf("per-layer metric %s names workload %q, which is not declared", d.name, d.on)
		}
	}
}

// TestQuickRuns runs every workload for one second, untraced and traced, and
// requires every declared metric with its unit and no failed check.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir()}
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			s := rep.Summary
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := s.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestCorruptAnswersCountAsFailures feeds the served-answer check a correct
// answer, a corrupted QASM and a swapped mapping; only the first may pass.
func TestCorruptAnswersCountAsFailures(t *testing.T) {
	p := &problem{name: "grid-16", spec: spec{arch: "grid", n: 16, density: 0.4}, edges: ataqc.RandomProblem(16, 0.4, 3).InteractionList()}
	dev, prob, opts := p.public(ataqc.StrategyHybrid)
	res, err := ataqc.Compile(dev, prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	var qasm bytes.Buffer
	if err := res.WriteQASM(&qasm); err != nil {
		t.Fatal(err)
	}
	good := qasm.String()
	swapped := res.FinalMapping()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	lines := strings.Split(good, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "rz(") {
			lines[i] = "rz(0.5" + l[strings.Index(l, ")"):]
			break
		}
	}
	corrupt := strings.Join(lines, "\n")

	s := &servedSession{fail: &failures{}}
	s.verify(p, good, res.InitialMapping(), res.FinalMapping())
	if n := s.fail.count(); n != 0 {
		t.Fatalf("correct answer counted as %d failures", n)
	}
	s.verify(p, corrupt, res.InitialMapping(), res.FinalMapping())
	if n := s.fail.count(); n != 1 {
		t.Fatalf("corrupted QASM: %d failures, want 1", n)
	}
	s.verify(p, good, res.InitialMapping(), swapped)
	if n := s.fail.count(); n != 2 {
		t.Fatalf("swapped final mapping: %d failures, want 2", n)
	}
}

// TestChangedAnswerCountsAsFailure: a timed library call whose answer no
// longer matches its set-up compile is a failed operation.
func TestChangedAnswerCountsAsFailure(t *testing.T) {
	e := &env{seed: 1, workdir: t.TempDir(), nproc: 1, fail: &failures{}}
	sess, err := setupCompile(e, servedSpecs[:1], ataqc.StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	ls := sess.(*libSession)
	if smp := ls.op(0, nil); smp.failed || e.fail.count() != 0 {
		t.Fatalf("unchanged answer failed: %+v", smp)
	}
	ls.subs[0].want.depth++
	if smp := ls.op(0, nil); !smp.failed || e.fail.count() != 1 {
		t.Fatalf("changed answer: failed=%v, %d failures", smp.failed, e.fail.count())
	}
}
