// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library's
// go/{ast,parser,token,types,importer} packages.
//
// The repository's invariants — the lock-ordering table in
// docs/ARCHITECTURE.md, the "*Locked methods require the mutex" naming
// convention, the "every solver loop checks ctx" contract, the
// "sentinels are compared with errors.Is and wrapped with %w" rule —
// existed only as prose until this package. The analyzers built on top of
// it (internal/analysis/{lockorder,lockedcall,ctxloop,senterr}) check them
// mechanically on every CI run via cmd/vmslint, alongside vetlite's
// nilness, the one vet-style pass `go vet` lacks. Passes `go vet` has are
// not re-implemented here: CI runs `go vet` itself.
//
// Why not golang.org/x/tools itself? The build environment is fully
// offline (no module proxy, empty module cache), so the real go/analysis
// framework cannot be vendored in. This package mirrors its shape —
// Analyzer with a Run(*Pass) function, Pass carrying Fset/Files/Pkg/
// TypesInfo/Report, an analysistest-style harness driven by "// want"
// comments — so the analyzers themselves are written exactly as they
// would be against x/tools, and a future PR with network access can swap
// the import path and delete this file tree.
//
// One deliberate extension: Pass.Module exposes every module-local
// package the loader has type-checked (ASTs and type information
// included), which lets the lock-order analyzer build cross-package call
// summaries — the x/tools equivalent would use facts; summaries over the
// whole module are simpler and strictly more precise for a single-module
// repository.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one static check. Run is invoked once per analyzed
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test failures.
	Name string
	// Doc is the one-paragraph description shown by cmd/vmslint -help.
	Doc string
	// Run executes the check. The returned value is ignored by this
	// driver (x/tools uses it for inter-analyzer requirements); returning
	// an error aborts the whole run.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer with one type-checked package and a sink
// for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the loader that produced this package; it gives access to
	// every other module-local package (with ASTs and type info) for
	// whole-program views such as call-graph summaries.
	Module *Module
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by file position. Analyzer errors (not diagnostics —
// failures of the analyzer itself) abort the run.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      m.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    m,
				Report: func(d Diagnostic) {
					diags = append(diags, d)
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := m.Fset.Position(diags[i].Pos), m.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
