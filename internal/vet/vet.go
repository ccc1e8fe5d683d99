// Package vet is the repo's codebase-semantics analyzer framework: a small
// go/analysis-style driver built on the standard library's go/ast and
// go/types (no golang.org/x/tools dependency), with custom analyzers that
// encode this compiler's determinism and observability contracts:
//
//   - maprange: no map-range iteration in packages whose output order is
//     part of the deterministic-compilation contract
//   - walltime: no time.Now/Since/Until or global math/rand source in
//     compile paths — clocks and randomness must be injected
//   - obsspan: every obs span (obs.Span / core phaseHandle) opened in a
//     function is ended on all return paths
//   - nakedpanic: panic arguments must be package-prefixed invariant
//     messages, never bare error values (DESIGN.md panic-audit rule)
//
// Findings are suppressed site-by-site with an audit annotation on the
// offending line or the line above:
//
//	//vet:ignore maprange keys are sorted two lines down
//
// The annotation names one or more analyzers and should carry the audit
// justification. cmd/ataqc-vet is the CLI driver; CI fails on any
// unsuppressed finding.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one type-checked package presented to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package directory relative to the module root
	// (e.g. "internal/core"); scope predicates match against it.
	Dir string
}

// Analyzer is one named static check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's stable identifier (also the annotation key).
	Name string
	// Doc describes the contract enforced and why it exists.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages for which
	// it returns true (argument is the module-relative directory). Nil
	// means every package.
	AppliesTo func(dir string) bool
	// Run inspects the pass and returns findings (nil when clean).
	Run func(p *Pass) []Diagnostic
}

// All lists every registered analyzer.
var All = []*Analyzer{MapRange, WallTime, ObsSpan, NakedPanic}

// compilePathDirs are the packages whose byte-identical-output contract
// forbids wall-clock reads and global randomness: everything on the
// compile path from problem graph to verified circuit. internal/obs is
// included because it is the clock injection point itself — its single
// legitimate time.Now (SystemClock) carries the audit annotation.
// internal/serve is included because its latency metrics, responses,
// flight records and SLO windows must all read the injected Config.Clock.
var compilePathDirs = map[string]bool{
	"internal/arch":        true,
	"internal/baseline":    true,
	"internal/cachestore":  true,
	"internal/circuit":     true,
	"internal/core":        true,
	"internal/graph":       true,
	"internal/greedy":      true,
	"internal/noise":       true,
	"internal/obs":         true,
	"internal/qaoa":        true,
	"internal/serve":       true,
	"internal/sim":         true,
	"internal/solver":      true,
	"internal/swapnet":     true,
	"internal/telemetry":   true,
	"internal/verify":      true,
	"internal/verify/sema": true,
}

// deterministicOutputDirs additionally covers packages that render ordered
// artifacts (benchmark tables, experiment reports) where map-range order
// would scramble committed output files.
func deterministicOutputDirs(dir string) bool {
	if compilePathDirs[dir] {
		return true
	}
	switch dir {
	case ".", "internal/bench", "internal/hamiltonian", "internal/faultinject":
		return true
	}
	return false
}

func isCompilePath(dir string) bool { return compilePathDirs[dir] }

// RunPackage executes the analyzers applicable to the pass and returns
// their findings with //vet:ignore suppressions already applied, sorted by
// position.
func RunPackage(p *Pass, analyzers ...*Analyzer) []Diagnostic {
	ign := collectIgnores(p)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(p.Dir) {
			continue
		}
		for _, d := range a.Run(p) {
			if ign.suppressed(a.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ignoreSet maps file → line → analyzer names suppressed there.
type ignoreSet map[string]map[int]map[string]bool

// collectIgnores scans every comment for //vet:ignore annotations. An
// annotation suppresses findings of the named analyzers on its own line
// and on the line directly below (so it can sit on the offending line or
// on its own line above it).
func collectIgnores(p *Pass) ignoreSet {
	set := ignoreSet{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "vet:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "vet:ignore"))
				pos := p.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				for _, name := range annotationNames(rest) {
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = map[string]bool{}
						}
						lines[ln][name] = true
					}
				}
			}
		}
	}
	return set
}

// annotationNames parses the analyzer list of a vet:ignore annotation: the
// leading whitespace-separated words that match registered analyzer names;
// everything after the first non-name word is the audit justification.
func annotationNames(rest string) []string {
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	var names []string
	for _, w := range strings.Fields(rest) {
		if !known[w] {
			break
		}
		names = append(names, w)
	}
	return names
}

func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer]
}
