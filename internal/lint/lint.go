// Package lint is tplint's analysis framework: a vet-style static
// checker that mechanically enforces the engine's cancellation-checkpoint
// contract for drain loops (ctxcheck) — a control-flow contract no type
// can express. Vocabularies (strategies, wire error classes) are closed
// types and tables the compiler checks, not analyzers; buffers and
// aligners are owned by the stage or join that allocates them, so there
// is no release path to check.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can be ported to the upstream framework
// mechanically, but it is built entirely on the standard library
// (go/ast, go/types, go/importer): this repo vendors nothing and the
// checker must build from a bare toolchain. cmd/tplint is the driver; it
// runs over package patterns (load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer for the fields this suite
// needs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc states the enforced invariant: first line is a summary, the
	// rest elaborates (which PR established the contract, what a
	// violation costs at runtime).
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.Info.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers is the full tplint suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CtxCheck}
}

// RunAnalyzers applies analyzers to pkgs and returns the diagnostics
// sorted by position.
//
// Test sources (*_test.go) never get here — the loader does not parse
// them: the suite encodes production contracts, and test code
// legitimately uses shapes the analyzers reject (loops with no query
// context).
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, Info: pkg.Info, diags: &all}
			if err := a.Run(pass); err != nil {
				all = append(all, Diagnostic{Analyzer: a.Name,
					Message: fmt.Sprintf("internal error: %v", err)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all
}
