// Package lint is tplint's analysis framework: a vet-style static
// checker that mechanically enforces the engine's hand-maintained
// invariants — cancellation checkpoints in drain loops (ctxcheck) and
// pooled-buffer hygiene (poolhygiene): control-flow contracts no type can
// express. Vocabularies (strategies, wire error classes) are closed types
// and tables the compiler checks, not analyzers.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can be ported to the upstream framework
// mechanically, but it is built entirely on the standard library
// (go/ast, go/types, go/importer): this repo vendors nothing and the
// checker must build from a bare toolchain. cmd/tplint is the driver; it
// runs over package patterns (load.go).
//
// # Suppressions
//
// A finding is suppressed by a comment on the flagged line or the line
// directly above it:
//
//	//tplint:ignore <analyzer> <reason>
//
// The reason is mandatory — a suppression without one is itself a
// diagnostic — so every accepted violation documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer for the fields this suite
// needs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tplint:ignore comments. It must be a valid identifier.
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

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Inspect walks every file of the pass in depth-first order.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
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
	return []*Analyzer{CtxCheck, PoolHygiene}
}

// ignoreRe matches the suppression comment syntax. The analyzer name and
// reason groups are validated separately so a malformed suppression gets
// a precise complaint instead of silently not suppressing.
var ignoreRe = regexp.MustCompile(`//\s*tplint:ignore(?:\s+(\S+))?\s*(.*)`)

// suppression is one parsed //tplint:ignore comment.
type suppression struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

// collectSuppressions parses every //tplint:ignore comment in files.
// Malformed suppressions (missing analyzer name or empty reason) are
// reported as diagnostics of the pseudo-analyzer "tplint".
func collectSuppressions(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []*suppression {
	var sups []*suppression
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Like all Go directives, the suppression must start the
				// comment ("//tplint:ignore ..."): mentions inside prose —
				// docs quoting the syntax — are not directives.
				if !strings.HasPrefix(c.Text, "//tplint:ignore") {
					continue
				}
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				name, reason := m[1], strings.TrimSpace(m[2])
				switch {
				case name == "" || !known[name]:
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "tplint",
						Message: fmt.Sprintf("tplint:ignore needs a known analyzer name (one of %s)", analyzerNames())})
				case reason == "":
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "tplint",
						Message: fmt.Sprintf("tplint:ignore %s needs a written reason", name)})
				default:
					sups = append(sups, &suppression{file: pos.Filename, line: pos.Line,
						analyzer: name, reason: reason, pos: c.Pos()})
				}
			}
		}
	}
	return sups
}

func analyzerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// applySuppressions drops diagnostics covered by a suppression on the
// same line or the line directly above, and reports suppressions that
// cover nothing (stale ignores must not accumulate).
func applySuppressions(diags []Diagnostic, sups []*suppression) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.analyzer == d.Analyzer && s.file == d.Pos.Filename &&
				(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// RunAnalyzers applies analyzers to pkgs and returns the surviving
// diagnostics sorted by position. Suppression comments are honored per
// package; unused and malformed suppressions are themselves reported.
//
// Test sources (*_test.go) never get here — the loader does not parse
// them: the suite encodes production contracts, and test code
// legitimately uses shapes the analyzers reject (un-pooled scratch
// buffers, loops with no query context).
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		files := pkg.Files
		var diags []Diagnostic
		sups := collectSuppressions(pkg.Fset, files, &diags)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: files,
				Pkg: pkg.Types, Info: pkg.Info, diags: &diags}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{Analyzer: a.Name,
					Message: fmt.Sprintf("internal error: %v", err)})
			}
		}
		diags = applySuppressions(diags, sups)
		ran := make(map[string]bool)
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, s := range sups {
			// A suppression is "unused" only when its analyzer actually ran
			// this invocation — running a single analyzer must not condemn
			// the others' suppressions.
			if !s.used && ran[s.analyzer] {
				diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(s.pos), Analyzer: "tplint",
					Message: fmt.Sprintf("tplint:ignore %s suppresses nothing on this or the next line", s.analyzer)})
			}
		}
		all = append(all, diags...)
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
