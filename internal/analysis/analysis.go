// Package analysis is spanlint's analyzer suite: static enforcement of
// the repo's written determinism, metering, and cancellation contracts.
//
// Every subsystem since the trace digests leans on one invariant — a run
// is a pure function of (graph, params, seed), byte-identical across the
// engine, its reference interpreter, and both transports. The contract
// is stated in prose (ARCHITECTURE.md, the dist package docs) and
// enforced dynamically (engine-vs-reference digest tests,
// dist.AuditPayloadFields), but a single
// unordered map iteration or stray time.Now in an algorithm receiver
// silently poisons cache identity and transport verification long before
// a test notices. The analyzers here make those violations build errors:
//
//   - Detmap: no map iteration in determinism-critical packages unless
//     the fold is provably order-insensitive or justified with a
//     //spanlint:ordered annotation.
//   - Detsource: no wall clock, global RNG, environment reads, or ad-hoc
//     goroutines inside Machine/PhasedProgram step functions and
//     algorithm receivers — only the per-vertex seeded RNG and
//     engine-serialized concurrency are legal there.
//   - Bitsacct: the static companion to dist.AuditPayloadFields — every
//     field of a payload struct must be referenced by its Bits method or
//     explicitly waived with //spanlint:bits, so CONGEST metering cannot
//     silently drop a transmitted field.
//   - Cancelprop: a function that accepts a cancel channel must propagate
//     it into every blocking call and Config it constructs (the sweep
//     timeout leak fixed in the step-engine PR was exactly this class).
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) so the analyzers read like
// standard vet checks, but it is self-contained: the module builds with
// no dependencies outside the standard library. cmd/spanlint drives the
// suite either standalone (internal/analysis/driver) or as a `go vet
// -vettool` unit checker (internal/analysis/unitchecker).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The zero value is not useful; the
// package-level variables Detmap, Detsource, Bitsacct, and Cancelprop are
// the suite.
type Analyzer struct {
	// Name is the analyzer's short lowercase identifier, used as the
	// diagnostic prefix and the flag namespace.
	Name string
	// Doc is the one-paragraph contract statement shown by -help.
	Doc string
	// Run executes the check over one package and reports findings via
	// pass.Report. The returned error is an analysis failure (not a
	// finding) and aborts the whole run.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed source, test files excluded by the drivers
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers set it; analyzers call
	// pass.Reportf instead.
	Report func(Diagnostic)

	directives directiveIndex // lazily built //spanlint: index
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // the reporting analyzer's name
	Message  string
}

// Reportf reports a formatted diagnostic at pos under the pass's
// analyzer name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full spanlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detmap, Detsource, Bitsacct, Cancelprop}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// pkgPath returns the package's import path with any test-variant suffix
// ("pkg [pkg.test]") stripped, so package scoping matches what go vet
// reports for test builds of the same package.
func (p *Pass) pkgPath() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// inFile reports whether pos lies in a file the suite analyzes: _test.go
// files are exempt from the determinism contracts (test scaffolding may
// iterate maps and read clocks freely — the contracts bind the code under
// test, not its harness).
func (p *Pass) inFile(pos token.Pos) bool {
	name := p.Fset.Position(pos).Filename
	return !strings.HasSuffix(name, "_test.go")
}

// walkFiles runs fn over every non-test file of the pass.
func (p *Pass) walkFiles(fn func(*ast.File)) {
	for _, f := range p.Files {
		if p.inFile(f.Pos()) {
			fn(f)
		}
	}
}
