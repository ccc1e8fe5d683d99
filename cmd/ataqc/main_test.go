package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
)

const ring8 = "../../examples/problems/ring8.txt"

// runCLI runs the command in-process and returns its exit code and output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	lineQASM := filepath.Join(dir, "line.qasm")
	if code, _, stderr := runCLI(t, "-arch", "line", "-n", "5", "-density", "0.5", "-qasm", lineQASM); code != 0 {
		t.Fatalf("compiling the line circuit: exit %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring the output must contain
		stderr string
	}{
		{"unknown subcommand", []string{"compile"}, 2, "", `unknown subcommand "compile"`},
		{"bad flag", []string{"solve", "-nope"}, 2, "", "flag provided but not defined"},
		{"help", []string{"lint", "-h"}, 0, "", "Usage of ataqc lint"},
		{"unknown family", []string{"-arch", "torus"}, 1, "", `unknown architecture family "torus"`},
		{"lint clean", []string{"lint", "-problem", ring8, "-arch", "grid"}, 0, ": ok", ""},
		{"lint line QASM against grid", []string{"lint", "-qasm", lineQASM, "-arch", "grid"}, 1, "error(s)", ""},
		{"lint without input", []string{"lint"}, 2, "", "exactly one of -problem or -qasm"},
		{"lint unknown family", []string{"lint", "-problem", ring8, "-arch", "torus"}, 2, "", "torus"},
		{"solve line-5", []string{"solve", "-arch", "line", "-cols", "5"}, 0, "optimal depth: 8 cycles", ""},
		{"solve unknown family", []string{"solve", "-arch", "torus"}, 1, "", "torus"},
		{"experiments unknown id", []string{"experiments", "-quick", "-exp", "table1,fig71"}, 2, "", `unknown experiment "fig71" (valid: all,fig17,`},
		{"warm without flags", []string{"warm"}, 2, "", "-cache-dir and -workload are required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Fatalf("stdout %q does not contain %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.stderr)
			}
		})
	}
}

// TestOutputModes drives the output branches each subcommand offers.
func TestOutputModes(t *testing.T) {
	dir := t.TempDir()
	qasm := filepath.Join(dir, "out.qasm")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
	}{
		{"compile json", []string{"-arch", "mumbai", "-n", "8", "-noise", "-json", "-qasm", qasm}, 0, `"estimatedFidelity"`},
		{"compile schedule", []string{"-arch", "line", "-n", "4", "-density", "1", "-schedule", "-regular"}, 0, "SWAPs:"},
		{"compile show-arch", []string{"-arch", "heavyhex", "-n", "20", "-show-arch"}, 0, "qubits)"},
		{"lint json", []string{"lint", "-qasm", qasm, "-arch", "mumbai", "-json", "-sema"}, 0, `{"analyzers":[{"analyzer":"sema","skipped":true`},
		{"lint werror", []string{"lint", "-problem", ring8, "-arch", "grid", "-strategy", "ata", "-werror"}, 1, "warning(s)"},
		{"solve grid bipartite", []string{"solve", "-arch", "grid", "-rows", "2", "-cols", "3", "-bipartite", "-symmetry"}, 0, "optimal depth:"},
		{"experiments table1", []string{"experiments", "-quick", "-exp", "table1", "-trace", filepath.Join(dir, "exp.txt"), "-trace-format", "text"}, 0, "# ataqc experiment results"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != tc.code || !strings.Contains(stdout, tc.stdout) {
				t.Fatalf("exit %d (want %d), stdout lacks %q\nstdout: %s\nstderr: %s", code, tc.code, tc.stdout, stdout, stderr)
			}
		})
	}
}

// TestCompileReportsProblemDensity pins the density line of a file-loaded
// problem to the problem's own 2m/(n(n-1)), not the -density default.
func TestCompileReportsProblemDensity(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-arch", "grid", "-problem", ring8)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	const want = "problem:       8 qubits, 8 interactions (density 0.29)\n"
	if !strings.Contains(stdout, want) {
		t.Fatalf("stdout lacks %q:\n%s", want, stdout)
	}
}

// TestFailedRunKeepsProfileAndTrace: a run that fails after starting its
// CPU profile still stops it, so the file is a complete profile, and the
// trace of the abandoned work is still written.
func TestFailedRunKeepsProfileAndTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"solve budget exhausted", []string{"solve", "-arch", "line", "-cols", "6", "-maxnodes", "1"}},
		{"compile unknown strategy", []string{"-arch", "line", "-n", "4", "-strategy", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prof := filepath.Join(dir, "cpu.prof")
			trace := filepath.Join(dir, "trace.jsonl")
			args := append(tc.args, "-cpuprofile", prof, "-trace", trace, "-trace-format", "jsonl")
			if code, _, _ := runCLI(t, args...); code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			checkProfile(t, prof)
			if fi, err := os.Stat(trace); err != nil {
				t.Fatalf("trace not written: %v", err)
			} else if strings.HasPrefix(tc.args[0], "solve") && fi.Size() == 0 {
				t.Fatal("abandoned search left an empty trace")
			}
		})
	}
}

// checkProfile asserts path holds a non-empty gzipped pprof profile, and
// has `go tool pprof` parse it when the toolchain is on PATH.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("profile body: %d bytes, err %v", len(body), err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return
	}
	if out, err := exec.Command(goTool, "tool", "pprof", "-raw", path).CombinedOutput(); err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}
}

// TestWarmSweepPopulatesCache runs the sweeper end to end against a
// temporary cache directory and proves a fresh daemon-side cache
// actually benefits: the precompiled workload problem is answered from
// the disk tier.
func TestWarmSweepPopulatesCache(t *testing.T) {
	dir := t.TempDir()
	if err := warmCache(io.Discard, dir, 0, "../../examples/workloads/repeat-heavy.json"); err != nil {
		t.Fatalf("run: %v", err)
	}

	store, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	// The repeat-heavy spec's hot problem (grid 16, density 0.4, seed 3)
	// was precompiled; a brand-new cache over the same directory must
	// serve it from disk.
	hot := graph.GnpConnected(16, 0.4, rand.New(rand.NewSource(3)))
	res, err := core.CompileCached(context.Background(), arch.GridN(16), hot, core.Options{Workers: 1}, cache)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Stats.CacheTier != string(cachestore.TierDisk) {
		t.Fatalf("hot problem served from tier %q, want disk", res.Stats.CacheTier)
	}
}

// TestWarmRejectsBadInputs: an unusable cache directory, a missing spec
// file and a mix entry naming an unknown architecture family are errors,
// not silent no-ops.
func TestWarmRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := warmCache(io.Discard, dir, 0, filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing workload file accepted")
	}
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := warmCache(io.Discard, filepath.Join(notDir, "cache"), 0, "../../examples/workloads/repeat-heavy.json"); err == nil {
		t.Fatal("cache directory under a regular file accepted")
	}

	spec := filepath.Join(t.TempDir(), "torus.json")
	body := `{"name":"torus","levels":[{"rps":1,"duration":"1s","clients":1}],"mix":[{"arch":"torus","n":8,"density":0.5,"seed":1}]}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := warmCache(io.Discard, dir, 0, spec)
	if err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("unknown family: err = %v, want one naming torus", err)
	}
}
