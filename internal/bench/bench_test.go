package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config { return Config{Quick: true, Trials: 1, Seed: 1} }

func TestCompileWithAllMethods(t *testing.T) {
	a, err := arch.ByFamily("heavy-hex", 16)
	if err != nil {
		t.Fatal(err)
	}
	w := RandomWorkload(16, 0.3, 1, 1)
	for _, m := range []string{MethodOurs, MethodGreedy, MethodSolver, MethodQAIM, MethodPaulihedral, Method2QAN} {
		s, err := CompileWith(m, a, w.Graphs[0], nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if s.Depth <= 0 || s.CX <= 0 {
			t.Fatalf("%s: degenerate stats %+v", m, s)
		}
	}
	if _, err := CompileWith("nope", a, w.Graphs[0], nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	w1 := RandomWorkload(20, 0.3, 2, 7)
	w2 := RandomWorkload(20, 0.3, 2, 7)
	if w1.Graphs[0].M() != w2.Graphs[0].M() {
		t.Fatal("same seed, different workloads")
	}
	r1 := RegularWorkload(20, 0.3, 1, 7)
	if r1.Graphs[0].N() != 20 {
		t.Fatal("regular workload size wrong")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## X", "| a | b |", "| 1 | 2 |", "> note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunFig17Smoke(t *testing.T) {
	r, err := RunFig17(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2*2*2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// "ours" is at or below the better of the two pure strategies on both
	// normalised depth and normalised CX (Theorem 6.1): columns 2-4 are
	// depth greedy, solver, ours and 5-7 CX greedy, solver, ours.
	for _, row := range r.Rows {
		v := make([]float64, 6)
		for i := range v {
			f, err := strconv.ParseFloat(row[2+i], 64)
			if err != nil {
				t.Fatalf("row %v: cell %d: %v", row, 2+i, err)
			}
			v[i] = f
		}
		if v[2] > min(v[0], v[1]) || v[5] > min(v[3], v[4]) {
			t.Errorf("row %v: ours exceeds the better pure strategy", row)
		}
	}
}

func TestRunTable3Smoke(t *testing.T) {
	r, err := RunTable3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestRunTable4Smoke(t *testing.T) {
	r, err := RunTable4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestRunCompileTimeSmoke(t *testing.T) {
	r, err := RunCompileTime(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestRunTVDSmoke(t *testing.T) {
	r, err := RunTVD(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// TVD values must parse as probabilities in [0, 1].
	for _, row := range r.Rows {
		for _, cell := range row[1:] {
			if !strings.HasPrefix(cell, "0.") && cell != "1.000" && !strings.HasPrefix(cell, "0") {
				t.Fatalf("odd TVD cell %q", cell)
			}
		}
	}
}

func TestRunConvergenceSmoke(t *testing.T) {
	r, err := RunConvergence(tinyConfig(), 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no convergence rows")
	}
}

// TestRunSemaAuditSmoke: every compiler's output on the quick sweep (two
// families, two densities, two sizes, one trial) must pass the sema audit.
func TestRunSemaAuditSmoke(t *testing.T) {
	r, err := RunSemaAudit(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want one per method", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] != "8" || row[2] != "8" || row[3] != "0" || row[4] != "0" {
			t.Fatalf("%s: circuits/pass/fail/findings = %s/%s/%s/%s, want 8/8/0/0",
				row[0], row[1], row[2], row[3], row[4])
		}
	}
}

func TestAverageStatsAverages(t *testing.T) {
	a := arch.GridN(8)
	w := Workload{Name: "two-copies", Graphs: []*graph.Graph{graph.Path(8), graph.Path(8)}}
	s, err := averageStats(MethodGreedy, a, w, nil, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CompileWith(MethodGreedy, a, graph.Path(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth != one.Depth || s.CX != one.CX {
		t.Fatalf("average of identical runs differs: %+v vs %+v", s, one)
	}
}

func TestRunAblationsSmoke(t *testing.T) {
	r, err := RunAblations(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("%d ablation rows", len(r.Rows))
	}
}
