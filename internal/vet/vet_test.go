package vet

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadBad loads the synthetic violation module under testdata/src.
func loadBad(t *testing.T, dir string) *Pass {
	t.Helper()
	l, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAnalyzersFireOnSyntheticBad pins that every analyzer fires on its
// violation class in the synthetic bad package — and only there: the clean
// variants (seeded rand, defer-closed spans, described panics) and the
// annotated sites must stay silent.
func TestAnalyzersFireOnSyntheticBad(t *testing.T) {
	p := loadBad(t, "internal/core")
	diags := RunPackage(p, All...)

	byAnalyzer := map[string][]Diagnostic{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d)
	}
	wantCounts := map[string]int{
		"maprange":   1, // MapLeak only; MapAudited is annotated
		"walltime":   2, // time.Now + rand.Intn; SeededOK is clean
		"obsspan":    2, // SpanLeak early return + SpanFallsOff
		"nakedpanic": 1, // PanicNaked only; PanicAudited is annotated
	}
	for name, want := range wantCounts {
		if got := len(byAnalyzer[name]); got != want {
			t.Errorf("%s: %d finding(s), want %d: %v", name, got, want, byAnalyzer[name])
		}
	}
	for name := range byAnalyzer {
		if _, ok := wantCounts[name]; !ok {
			t.Errorf("unexpected analyzer %s fired: %v", name, byAnalyzer[name])
		}
	}

	// The findings must anchor to the marked lines.
	wantMarkers := map[string]string{
		"maprange":   "maprange: order leaks into out",
		"walltime":   "walltime: wall clock",
		"obsspan":    "obsspan: leaky return",
		"nakedpanic": "nakedpanic: bare error value",
	}
	lines := fileLines(t, filepath.Join("testdata", "src", "internal", "core", "bad.go"))
	for name, marker := range wantMarkers {
		found := false
		for _, d := range byAnalyzer[name] {
			if d.Pos.Line-1 < len(lines) && strings.Contains(lines[d.Pos.Line-1], marker) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no finding on the line marked %q; got %v", name, marker, byAnalyzer[name])
		}
	}
}

// TestScopePredicates pins which packages each scoped analyzer covers:
// compile-path packages for walltime, those plus report emitters for
// maprange, and never cmd/ for either.
func TestScopePredicates(t *testing.T) {
	cases := []struct {
		dir                string
		walltime, maprange bool
	}{
		{"internal/core", true, true},
		{"internal/verify/sema", true, true},
		{"internal/obs", true, true},
		{"internal/telemetry", true, true}, // flight recorder / SLO math runs on injected clocks
		{"internal/serve", true, true},     // latencies and SLO windows read Config.Clock
		{"internal/bench", false, true},    // times compilations, emits tables
		{".", false, true},                 // public API renders reports
		{"cmd/ataqc", false, false},        // CLIs may read the clock
		{"internal/vet", false, false},     // the analyzers themselves
	}
	for _, c := range cases {
		if got := isCompilePath(c.dir); got != c.walltime {
			t.Errorf("isCompilePath(%q) = %v, want %v", c.dir, got, c.walltime)
		}
		if got := deterministicOutputDirs(c.dir); got != c.maprange {
			t.Errorf("deterministicOutputDirs(%q) = %v, want %v", c.dir, got, c.maprange)
		}
	}
}

// TestAnnotationNames pins the vet:ignore grammar: leading analyzer names,
// then free-text justification.
func TestAnnotationNames(t *testing.T) {
	cases := []struct {
		rest string
		want []string
	}{
		{"maprange keys are sorted", []string{"maprange"}},
		{"maprange walltime audited twice over", []string{"maprange", "walltime"}},
		{"because reasons", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := annotationNames(c.rest)
		if len(got) != len(c.want) {
			t.Errorf("annotationNames(%q) = %v, want %v", c.rest, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("annotationNames(%q) = %v, want %v", c.rest, got, c.want)
			}
		}
	}
}

// TestIgnoreSuppressionLines pins that an annotation covers its own line
// and the one below, nothing else.
func TestIgnoreSuppressionLines(t *testing.T) {
	p := loadBad(t, "internal/core")
	ign := collectIgnores(p)
	file := filepath.Join("testdata", "src", "internal", "core", "bad.go")
	lines := fileLines(t, file)
	annLine := 0
	for i, l := range lines {
		if strings.Contains(l, "vet:ignore maprange summation") {
			annLine = i + 1
			break
		}
	}
	if annLine == 0 {
		t.Fatal("annotation line not found in testdata")
	}
	abs, _ := filepath.Abs(file)
	for _, tc := range []struct {
		line int
		want bool
	}{{annLine, true}, {annLine + 1, true}, {annLine + 2, false}, {annLine - 1, false}} {
		pos := token.Position{Filename: abs, Line: tc.line}
		if got := ign.suppressed("maprange", pos); got != tc.want {
			t.Errorf("suppressed(maprange, line %d) = %v, want %v", tc.line, got, tc.want)
		}
	}
}

// TestRepoIsVetClean is the committed regression behind the CI vet job:
// every package of this module passes every analyzer. Any new wall-clock
// read, unsorted map range, leaked span, or naked panic fails this test
// before it reaches CI.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against stdlib source")
	}
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Match("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 15 {
		t.Fatalf("Match(./...) found only %d packages: %v", len(dirs), dirs)
	}
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, d := range RunPackage(p, All...) {
			t.Errorf("%s", d)
		}
	}
}

// TestMatchSkipsTestdata pins the package-pattern walker's exclusions.
func TestMatchSkipsTestdata(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Match("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Match leaked testdata dir %s", d)
		}
	}
}

func fileLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}
